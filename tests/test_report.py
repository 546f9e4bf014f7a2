import json
import time
import xml.dom.minidom
import xml.sax.saxutils

import pytest

from latetrack.report import (RunManifest, StageTimer, build_manifest, file_digest,
                              svg_line_plot, write_csv, write_json, write_manifest,
                              write_markdown_table)


class TestWriters:
    def test_csv_floats_use_repr(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(path, ["a", "b"], [[0.1, 1], [0.25, 2]])
        assert path.read_text() == "a,b\n0.1,1\n0.25,2\n"

    def test_csv_manifest_comment(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(path, ["a"], [[1]], manifest_ref="abcdef123456")
        assert path.read_text().startswith("# manifest=abcdef123456\n")

    def test_json_embeds_manifest_key(self, tmp_path):
        path = tmp_path / "out.json"
        write_json(path, {"x": 1}, manifest_ref="abcdef123456")
        doc = json.loads(path.read_text())
        assert doc == {"manifest": "abcdef123456", "x": 1}

    def test_json_sorted_and_stable(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_json(a, {"z": 1, "a": 2})
        write_json(b, {"a": 2, "z": 1})
        assert a.read_bytes() == b.read_bytes()

    def test_markdown_table_shape(self, tmp_path):
        path = tmp_path / "t.md"
        write_markdown_table(path, ["x", "y"], [[1, 2]], manifest_ref="abc",
                             title="Results")
        text = path.read_text()
        assert "<!-- manifest=abc -->" in text
        assert "# Results" in text
        assert "| x | y |" in text
        assert "| 1 | 2 |" in text

    def test_markdown_floats_take_four_decimals(self, tmp_path):
        path = tmp_path / "t.md"
        write_markdown_table(path, ["name", "v"], [["a", 0.123456], ["b", 3], ["c", 2.0]])
        assert path.read_text().splitlines()[2:] == ["| a | 0.1235 |", "| b | 3 |",
                                                     "| c | 2.0000 |"]


class TestSvg:
    def test_plot_structure(self, tmp_path):
        path = tmp_path / "p.svg"
        xs = [0.0, 0.5, 1.0]
        svg_line_plot(path, [("kf", xs, [0.1, 0.5, 0.9]), ("none", xs, [0.2, 0.2, 0.2])],
                      title="AUC", x_label="sigma", y_label="auc",
                      manifest_ref="abc123")
        text = path.read_text()
        assert text.startswith("<svg ")
        assert text.rstrip().endswith("</svg>")
        assert text.count("<polyline") == 2
        assert "manifest=abc123" in text
        assert ">kf<" in text and ">none<" in text

    def test_markup_in_text_is_escaped(self, tmp_path):
        path = tmp_path / "p.svg"
        label = "kf_learned:a&b<c/noise.json"
        svg_line_plot(path, [(label, [0.0, 1.0], [0.1, 0.9])],
                      title="AUC <&>", x_label="sigma", y_label="auc")
        texts = [node.firstChild.data for node in
                 xml.dom.minidom.parse(str(path)).getElementsByTagName("text")]
        assert label in texts and "AUC <&>" in texts
        assert f">{xml.sax.saxutils.escape(label)}<" in path.read_text()

    def test_degenerate_x_span_survives(self, tmp_path):
        path = tmp_path / "p.svg"
        svg_line_plot(path, [("s", [0.3, 0.3], [0.1, 0.9])],
                      title="t", x_label="x", y_label="y")
        assert "<polyline" in path.read_text()


class TestManifest:
    def test_ref_is_twelve_hex_chars(self):
        m = build_manifest("evaluate", 3, {"sigma": 0.0})
        assert len(m.ref) == 12
        assert m.config_hash.startswith(m.ref)
        int(m.ref, 16)

    def test_hash_covers_command_config_inputs_seed(self, tmp_path):
        data = tmp_path / "in.txt"
        data.write_text("payload\n")
        base = build_manifest("evaluate", 3, {"a": 1}, {"in": data})
        assert build_manifest("evaluate", 3, {"a": 1}, {"in": data}).ref == base.ref
        assert build_manifest("compare", 3, {"a": 1}, {"in": data}).ref != base.ref
        assert build_manifest("evaluate", 4, {"a": 1}, {"in": data}).ref != base.ref
        assert build_manifest("evaluate", 3, {"a": 2}, {"in": data}).ref != base.ref
        data.write_text("changed\n")
        assert build_manifest("evaluate", 3, {"a": 1}, {"in": data}).ref != base.ref

    def test_wall_clock_does_not_move_the_ref(self, tmp_path):
        base = build_manifest("train", 0, {})
        (tmp_path / "fast").mkdir()
        (tmp_path / "slow").mkdir()
        fast = json.loads(write_manifest(base, tmp_path / "fast", {"fit": 0.1}).read_text())
        slow = json.loads(write_manifest(base, tmp_path / "slow", {"fit": 99.0}).read_text())
        assert fast["ref"] == slow["ref"] == base.ref
        assert fast["stage_seconds"] == {"fit": 0.1}
        assert slow["stage_seconds"] == {"fit": 99.0}
        del fast["stage_seconds"], slow["stage_seconds"]
        assert fast == slow

    def test_write_manifest_file(self, tmp_path):
        m = build_manifest("gen", 7, {"count": 3})
        out = write_manifest(m, tmp_path, {"generate": 0.5})
        assert out.name == "manifest.json"
        doc = json.loads(out.read_text())
        assert doc["ref"] == m.ref
        assert doc["command"] == "gen"
        assert doc["seeds"] == {"command": 7}
        assert "latetrack" in doc["module_versions"]

    def test_file_digest_is_sha256(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(b"abc")
        assert file_digest(path) == (
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad")


class TestStageTimer:
    def test_accumulates_by_name(self):
        timer = StageTimer()
        with timer.stage("a"):
            time.sleep(0.01)
        with timer.stage("a"):
            pass
        with timer.stage("b"):
            pass
        assert set(timer.stages) == {"a", "b"}
        assert timer.stages["a"] >= 0.01

    def test_records_even_on_error(self):
        timer = StageTimer()
        with pytest.raises(RuntimeError):
            with timer.stage("x"):
                raise RuntimeError("boom")
        assert "x" in timer.stages
