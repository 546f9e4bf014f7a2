import json
import math
import re

import numpy as np
import pytest

from latetrack.errors import ValidationError
from latetrack.motion import encode_motion
from latetrack.network import (PMWeights, backward_batch, forward_batch, init_weights,
                               json_numbers, l1_loss, load_weights, pm_motions, pm_predict,
                               save_weights, window_inputs)

from _oracles import (CHECKPOINT_ORDER, BoundingBox, apply_motion_row, central_differences,
                      constant_factor_weights, pm_forward_loops, weight_views)

SMALL = dict(k=3, n_heads=2, c_enc=8, c_dec=6)


def random_input(k=3, seed=0):
    return np.random.default_rng(seed).normal(0, 0.3, size=(k, 8))


def forward_one(w, x):
    """(N, 4) factors of one (k, 8) window, run as a batch of one."""
    out, _ = forward_batch(w, x[None])
    return out[0]


def backward_one(w, x, grad_out):
    """Parameter gradients of sum(forward_one(w, x) * grad_out), as a
    PMWeights."""
    _, cache = forward_batch(w, x[None], keep_cache=True)
    return backward_batch(w, cache, grad_out[None])


def assert_matches_finite_differences(grad, scalar, params, label=""):
    grads = weight_views(grad)
    fd = central_differences(scalar, params, h=1e-6)
    for name in fd:
        denom = max(np.max(np.abs(fd[name])), 1e-8)
        assert np.max(np.abs(grads[name] - fd[name])) / denom < 1e-4, f"{label} {name}"


def track_window(track):
    """The one-frame-gap window of a track: motions (k, 4), intervals (k,)."""
    motions = np.array([encode_motion(a, b) for a, b in zip(track, track[1:])])
    return motions, np.ones(len(motions), dtype=np.int64)


def cv_history(vx=2.0, vy=-1.0, k=4, size=10.0):
    track = [BoundingBox(vx * i, vy * i, size, size) for i in range(k + 1)]
    return track, track_window(track)


def predict_one(w, motions, intervals, latest):
    """pm_predict's N rows for one window, run as a stack of one, as
    tuples."""
    rows = pm_predict(w, motions[None], intervals[None], np.array([tuple(latest)]))[0]
    return [tuple(row) for row in rows.tolist()]


class TestForward:
    def test_zeroed_weights_give_zero_factors(self):
        w = PMWeights(**SMALL)
        out = forward_one(w, random_input(seed=1))
        assert out.shape == (2, 4)
        assert np.all(out == 0.0)

    def test_output_shape_any_geometry(self):
        w = init_weights(k=5, n_heads=3, c_enc=16, c_dec=8, seed=2)
        out = forward_one(w, random_input(k=5, seed=3))
        assert out.shape == (3, 4)
        assert np.all(np.isfinite(out))

    def test_output_bias_reaches_every_head(self):
        w = PMWeights(**SMALL)
        w.out_b[:] = [1.5, -0.5, 0.25, 0.0]
        out = forward_one(w, random_input(seed=4))
        for n in range(2):
            assert out[n].tolist() == [1.5, -0.5, 0.25, 0.0]

    def test_constant_factor_fixture(self):
        w = constant_factor_weights(k=3, n_heads=3, c_enc=8, c_dec=6)
        out = forward_one(w, random_input(seed=5))
        for n in range(3):
            assert out[n] == pytest.approx([n + 1] * 4)

    def test_head_relu_blocks_negative_bias(self):
        w = PMWeights(**SMALL)
        w.out_w[:, 0] = 1.0
        w.head_b[0, 0] = -2.0
        w.head_b[1, 0] = 2.0
        out = forward_one(w, random_input(seed=6))
        assert out[0].tolist() == [0.0] * 4
        assert out[1].tolist() == [2.0] * 4

    def test_head_independence(self):
        w = init_weights(seed=7, **SMALL)
        base = forward_one(w, random_input(seed=8))
        w2 = w.copy()
        w2.head_w[1] += 0.5
        w2.head_b[1] -= 0.25
        out = forward_one(w2, random_input(seed=8))
        assert np.array_equal(out[0], base[0])
        assert not np.array_equal(out[1], base[1])

    def test_batched_forward_matches_single(self):
        """forward_batch against the literal loop oracle, window by window,
        at every batch size, window length and head count listed."""
        for b in (1, 7):
            for k in (1, 2, 5):
                for n_heads in (1, 3):
                    w = init_weights(k=k, n_heads=n_heads, c_enc=8, c_dec=6, seed=9 + k)
                    xs = np.random.default_rng(b * 10 + k).normal(0, 0.3, size=(b, k, 8))
                    batched, cache = forward_batch(w, xs, keep_cache=True)
                    assert cache is not None
                    assert batched == pytest.approx(pm_forward_loops(w, xs), abs=1e-12), \
                        f"B={b} k={k} N={n_heads}"

    def test_wrong_input_shape_rejected(self):
        w = init_weights(seed=0, **SMALL)
        for shape in ((1, 4, 8), (1, 3, 7), (3, 8)):
            with pytest.raises(ValidationError):
                forward_batch(w, np.zeros(shape))

    def test_non_finite_input_rejected(self):
        w = init_weights(seed=0, **SMALL)
        x = random_input()
        x[0, 0] = float("nan")
        with pytest.raises(ValidationError):
            forward_one(w, x)


class TestWeights:
    def test_shape_validation(self):
        good = PMWeights(**SMALL)
        for flat in (np.zeros(good.flat.size - 1), good.flat.reshape(1, -1)):
            with pytest.raises(ValidationError):
                PMWeights(k=3, n_heads=2, c_enc=8, c_dec=6, flat=flat)

    def test_non_finite_rejected(self):
        bad = PMWeights(**SMALL)
        bad.dec_b[0] = float("inf")
        with pytest.raises(ValidationError):
            PMWeights(k=3, n_heads=2, c_enc=8, c_dec=6, flat=bad.flat)

    def test_views_share_one_flat_layout(self):
        w = init_weights(seed=15, **SMALL)
        w.flat[1] = 5.0
        assert w.enc_w[0, 1] == 5.0
        w.enc_w[2, 3] = -3.0
        assert w.flat[2 * 8 + 3] == -3.0
        twin = w.copy()
        assert not np.shares_memory(twin.flat, w.flat)
        assert np.array_equal(twin.flat, w.flat)
        grad = backward_one(w, random_input(seed=16), np.ones((2, 4)))
        layers = weight_views(grad)
        assert np.array_equal(grad.flat,
                              np.concatenate([layers[name].ravel() for name in CHECKPOINT_ORDER]))

    @pytest.mark.parametrize("make", [init_weights, PMWeights])
    @pytest.mark.parametrize("c_enc, c_dec", [(0, 6), (8, 0), (8, -3)])
    def test_channel_counts_must_be_positive(self, make, c_enc, c_dec):
        with pytest.raises(ValidationError, match="need c_enc >= 1 and c_dec >= 1"):
            make(k=3, n_heads=2, c_enc=c_enc, c_dec=c_dec)

    def test_init_is_deterministic_and_bounded(self):
        a = init_weights(seed=13, **SMALL)
        b = init_weights(seed=13, **SMALL)
        for name, arr in weight_views(a).items():
            assert np.array_equal(arr, weight_views(b)[name])
        assert np.max(np.abs(a.enc_w)) <= math.sqrt(6.0 / 8)
        assert np.all(a.enc_b == 0.0)

    def test_copy_is_deep(self):
        a = init_weights(seed=14, **SMALL)
        b = a.copy()
        b.enc_w[0, 0] += 1.0
        assert a.enc_w[0, 0] != b.enc_w[0, 0]


class TestBackward:
    def test_matches_finite_differences(self):
        """Both window edges of the temporal conv (k = 1, 2, 5) and the
        reduction over the batch (B = 3)."""
        for b in (1, 3):
            for k in (1, 2, 5):
                w = init_weights(seed=21, **dict(SMALL, k=k))
                x = np.random.default_rng(22 + k).normal(0, 0.3, size=(b, k, 8))
                g_out = np.random.default_rng(23 + b).normal(size=(b, 2, 4))
                _, cache = forward_batch(w, x, keep_cache=True)
                grads = backward_batch(w, cache, g_out)

                def scalar():
                    return float(np.sum(forward_batch(w, x)[0] * g_out))

                assert_matches_finite_differences(grads, scalar, weight_views(w), f"B={b} k={k}")

    def test_l1_pipeline_gradient(self):
        w = init_weights(seed=31, **SMALL)
        _, (motions, intervals) = cv_history(k=3)
        x, _ = window_inputs(motions[None], intervals[None])
        speeds = np.array([[[0.21, -0.07, 0.0, 0.0]]])
        targets = np.array([[[0.3, -0.1, 0.0, 0.0], [0.6, -0.2, 0.0, 0.0]]])

        def scalar():
            loss, _ = l1_loss(forward_batch(w, x)[0] * speeds, targets)
            return loss

        factors, cache = forward_batch(w, x, keep_cache=True)
        _, sign = l1_loss(factors * speeds, targets)
        grads = backward_batch(w, cache, sign * speeds / sign.size)
        assert_matches_finite_differences(grads, scalar, weight_views(w))

    def test_zero_grad_out_gives_zero_grads(self):
        w = init_weights(seed=41, **SMALL)
        grads = backward_one(w, random_input(seed=42), np.zeros((2, 4)))
        for arr in weight_views(grads).values():
            assert np.all(arr == 0.0)

    def test_grad_shapes_mirror_params(self):
        w = init_weights(seed=43, **SMALL)
        grads = backward_one(w, random_input(seed=44), np.ones((2, 4)))
        assert set(weight_views(grads)) == set(weight_views(w))
        for name, arr in weight_views(grads).items():
            assert arr.shape == weight_views(w)[name].shape


class TestL1Loss:
    def test_exact_match_is_zero(self):
        speeds = np.array([[[0.1, 0.2, 0.0, 0.0]]])
        factors = np.array([[[2.0, 0.5, 0.0, 0.0]]])
        targets = factors * speeds
        loss, sign = l1_loss(factors * speeds, targets)
        assert loss == 0.0
        assert np.all(sign == 0.0)

    def test_unit_diff_means_unit_loss(self):
        loss, sign = l1_loss(np.full((1, 1, 4), 2.0), np.ones((1, 1, 4)))
        assert loss == 1.0
        assert sign / sign.size == pytest.approx(np.full((1, 1, 4), 0.25))

    def test_shape_mismatch_rejected(self):
        for pred, targets in (
            (np.ones((1, 1, 4)), np.ones((1, 2, 4))),
            (np.ones((2, 1, 4)), np.ones((1, 1, 4))),
            (np.ones((1, 4)), np.ones((1, 1, 4))),
        ):
            with pytest.raises(ValidationError, match="do not match targets"):
                l1_loss(pred, targets)


class TestPredict:
    def test_zero_factors_hold_the_box_still(self):
        track, (motions, intervals) = cv_history(k=3)
        w = PMWeights(k=3, n_heads=2, c_enc=8, c_dec=6)
        rows = predict_one(w, motions, intervals, track[-1])
        assert rows == [tuple(track[-1]), tuple(track[-1])]

    def test_bias_n_heads_continue_constant_velocity(self):
        track, (motions, intervals) = cv_history(vx=3.0, vy=1.5, k=3)
        w = constant_factor_weights(k=3, n_heads=2, c_enc=8, c_dec=6)
        boxes = [BoundingBox(*row) for row in predict_one(w, motions, intervals, track[-1])]
        for n, box in enumerate(boxes, start=1):
            assert box.cx == pytest.approx(track[-1].cx + 3.0 * n, abs=1e-9)
            assert box.cy == pytest.approx(track[-1].cy + 1.5 * n, abs=1e-9)
            assert box.w == pytest.approx(10.0, abs=1e-9)

    def test_static_history_predicts_static(self):
        b = BoundingBox(5, 5, 12, 8)
        w = init_weights(seed=51, k=3, n_heads=2, c_enc=8, c_dec=6)
        assert predict_one(w, np.zeros((3, 4)), np.ones(3, dtype=np.int64), b) == [tuple(b)] * 2

    def test_history_length_mismatch_rejected(self):
        track, (motions, intervals) = cv_history(k=4)
        w = init_weights(seed=52, k=3, n_heads=2, c_enc=8, c_dec=6)
        with pytest.raises(ValidationError):
            predict_one(w, motions, intervals, track[-1])

    def test_scale_invariance(self):
        track, (motions, intervals) = cv_history(vx=2.5, vy=-0.5, k=3)
        w = init_weights(seed=53, k=3, n_heads=2, c_enc=8, c_dec=6)
        base = [BoundingBox(*row) for row in predict_one(w, motions, intervals, track[-1])]
        for s in (0.1, 10.0):
            scaled_track = [BoundingBox(b.x * s, b.y * s, b.w * s, b.h * s) for b in track]
            scaled = [BoundingBox(*row) for row in
                      predict_one(w, *track_window(scaled_track), scaled_track[-1])]
            for got, want in zip(scaled, base):
                assert got.cx == pytest.approx(want.cx * s, abs=1e-9 * max(1, abs(want.cx * s)))
                assert got.w == pytest.approx(want.w * s, abs=1e-9 * max(1, want.w * s))


class TestHistoryInput:
    def test_rows_pair_motion_with_rate(self):
        xs, _ = window_inputs(np.array([[[0.2, -0.4, 0.1, 0.0]]]), np.array([[2]]))
        assert xs[0, 0].tolist() == [0.2, -0.4, 0.1, 0.0, 0.1, -0.2, 0.05, 0.0]

    def test_batch_rows_match_a_literal_loop(self):
        rng = np.random.default_rng(5)
        motions = rng.normal(0, 0.3, size=(6, 5, 4))
        intervals = rng.integers(1, 4, size=(6, 5))
        xs, speeds = window_inputs(motions, intervals)
        for b in range(6):
            acc = [0.0] * 4
            for t in range(5):
                rates = [v / intervals[b, t] for v in motions[b, t]]
                assert xs[b, t].tolist() == list(motions[b, t]) + rates
                acc = [a + r for a, r in zip(acc, rates)]
            assert speeds[b].tolist() == [a / 5 for a in acc]


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        w = init_weights(seed=61, **SMALL)
        path = tmp_path / "w.json"
        save_weights(w, path)
        back = load_weights(path)
        assert (back.k, back.n_heads, back.c_enc, back.c_dec) == (3, 2, 8, 6)
        for name, arr in weight_views(w).items():
            assert np.array_equal(arr, weight_views(back)[name])

    def test_same_weights_same_bytes(self, tmp_path):
        w = init_weights(seed=62, **SMALL)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_weights(w, a)
        save_weights(w.copy(), b)
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_version_rejected(self, tmp_path):
        w = init_weights(seed=63, **SMALL)
        path = tmp_path / "w.json"
        save_weights(w, path)
        doc = json.loads(path.read_text())
        doc["format_version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError):
            load_weights(path)

    @pytest.mark.parametrize("version", [True, 1.0], ids=["true", "float"])
    def test_version_equal_to_one_but_not_the_integer_is_rejected(self, tmp_path, capsys,
                                                                  version):
        """true == 1.0 == 1 in Python, so the check is on the JSON type:
        the library names the file, and both the compare token and a
        `kind = pm` predictor config exit 2 naming it."""
        from latetrack.cli import main

        path = tmp_path / "w.json"
        save_weights(init_weights(k=2, n_heads=2, c_enc=2, c_dec=2), path)
        doc = json.loads(path.read_text())
        doc["format_version"] = version
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match=re.escape(
                f"{path}: unsupported checkpoint version {version!r}")):
            load_weights(path)
        seqs = tmp_path / "seqs"
        seqs.mkdir()
        (seqs / "a.txt").write_text("".join(f"{10 + f},20,30,40\n" for f in range(8)))
        (tmp_path / "t.cfg").write_text("latency.kind = constant\nlatency.mean = 0.05\n")
        (tmp_path / "p.cfg").write_text(f"kind = pm\nweights = {path}\n")
        common = ["--sequences", str(seqs), "--tracker", str(tmp_path / "t.cfg")]
        for argv in (["compare", *common, "--predictors", f"pm:{path}"],
                     ["simulate", *common, "--predictor", str(tmp_path / "p.cfg")]):
            capsys.readouterr()
            assert main([*argv, "--out", str(tmp_path / "out")]) == 2
            assert f"{path}: unsupported checkpoint version" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_extra_keys_tolerated(self, tmp_path):
        w = init_weights(seed=64, **SMALL)
        path = tmp_path / "w.json"
        save_weights(w, path)
        doc = json.loads(path.read_text())
        doc["note"] = "extra"
        path.write_text(json.dumps(doc))
        load_weights(path)

    def test_missing_layer_rejected(self, tmp_path):
        w = init_weights(seed=65, **SMALL)
        path = tmp_path / "w.json"
        save_weights(w, path)
        doc = json.loads(path.read_text())
        del doc["layers"]["enc_fc.weight"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError):
            load_weights(path)

    @pytest.mark.parametrize("corrupt", [
        lambda doc: json.dumps({key: v for key, v in doc.items() if key != "c_dec"}).encode(),
        lambda doc: json.dumps([1, 2]).encode(),
        lambda doc: json.dumps(dict(doc, k="three")).encode(),
        lambda doc: json.dumps(dict(doc, k=3.9)).encode(),
        lambda doc: json.dumps(dict(doc, k="3")).encode(),
        lambda doc: json.dumps(dict(doc, k=True)).encode(),
        lambda doc: json.dumps(dict(doc, k=float(doc["k"]))).encode(),
        lambda doc: b"\xff\xfe" + json.dumps(doc).encode(),
        lambda doc: json.dumps(dict(doc, layers=dict(
            doc["layers"], **{"dec_shared_fc.bias": {"shape": [5], "data": [0.0] * 5}}))).encode(),
        lambda doc: json.dumps(dict(doc, layers=dict(
            doc["layers"], **{"enc_fc.bias": {"shape": [8], "data": [math.nan] * 8}}))).encode(),
        lambda doc: json.dumps(dict(doc, layers=dict(doc["layers"], **{"enc_fc.bias": {
            "shape": [8], "data": ["1", True, 0.5, "2e0"] + [0.0] * 4}}))).encode(),
        lambda doc: json.dumps(dict(doc, layers=dict(doc["layers"], **{"enc_fc.bias": {
            "shape": [8], "data": [True] * 8}}))).encode(),
        lambda doc: json.dumps(dict(doc, layers=dict(doc["layers"], **{"enc_fc.bias": {
            "shape": [8], "data": [[0.0] * 4] * 2}}))).encode(),
    ], ids=["missing_geometry", "not_an_object", "k_not_integer", "k_fraction", "k_string",
            "k_bool", "k_integral_float", "not_utf8", "layer_shape_mismatch", "non_finite_layer",
            "layer_strings_and_bools", "layer_bools", "layer_nested_lists"])
    def test_malformed_checkpoint_rejected_with_path(self, tmp_path, corrupt):
        path = tmp_path / "w.json"
        save_weights(init_weights(seed=66, **SMALL), path)
        path.write_bytes(corrupt(json.loads(path.read_text())))
        with pytest.raises(ValidationError, match=re.escape(str(path))):
            load_weights(path)


class TestJsonNumbers:
    """The one rule for a JSON list of numbers, behind both the
    checkpoint and the fitted-noise readers."""

    def test_ints_and_floats_become_a_float_array(self):
        arr = json_numbers([1, 0.5, -2, 1e300, 2 ** 70])
        assert arr.dtype == np.float64 and arr.tolist() == [1.0, 0.5, -2.0, 1e300, 2.0 ** 70]
        assert json_numbers([]).shape == (0,)

    @pytest.mark.parametrize("values", [
        ["1"], [True], [False, 1.0], [None], [{"a": 1}], [[1.0]], {"a": 1.0}, "1234", 1.0,
        (1.0, 2.0)], ids=["string", "true", "false", "null", "object", "nested", "dict",
                          "str", "scalar", "tuple"])
    def test_anything_but_a_list_of_numbers_is_rejected(self, values):
        with pytest.raises(ValidationError, match="expected a JSON list of numbers"):
            json_numbers(values)

    @pytest.mark.parametrize("values", [[math.nan], [1.0, math.inf], [-math.inf], [10 ** 400]],
                             ids=["nan", "inf", "-inf", "int_past_float"])
    def test_non_finite_numbers_are_rejected(self, values):
        with pytest.raises(ValidationError, match="expected finite numbers"):
            json_numbers(values)


class TestStackingRule:
    """Leading stack axes change no bit: an (m, 1, k, ·) stack equals m
    batches of one, and (1, B, k, ·) equals (B, k, ·). Checked with
    np.array_equal, since a summation-order change moves only the last
    bits."""

    GEOMETRIES = (SMALL, dict(k=3, n_heads=2, c_enc=64, c_dec=32), dict(k=5, n_heads=1))

    @pytest.mark.parametrize("geometry", GEOMETRIES, ids=["small", "default", "k5"])
    def test_stack_of_windows_equals_batches_of_one(self, geometry):
        w = init_weights(seed=71, **geometry)
        k = geometry["k"]
        rng = np.random.default_rng(72)
        for m in (1, 2, 17):
            xs = rng.normal(0, 0.3, size=(m, 1, k, 8))
            stacked, _ = forward_batch(w, xs)
            assert stacked.shape == (m, 1, w.n_heads, 4)
            for i in range(m):
                assert np.array_equal(stacked[i], forward_batch(w, xs[i])[0]), f"m={m} i={i}"
            motions = rng.normal(0, 0.3, size=(m, 1, k, 4))
            intervals = rng.integers(1, 4, size=(m, 1, k)).astype(np.float64)
            stacked = pm_motions(w, motions, intervals)
            for i in range(m):
                assert np.array_equal(stacked[i], pm_motions(w, motions[i], intervals[i]))

    @pytest.mark.parametrize("geometry", GEOMETRIES, ids=["small", "default", "k5"])
    def test_one_stack_equals_the_batch(self, geometry):
        w = init_weights(seed=73, **geometry)
        k = geometry["k"]
        rng = np.random.default_rng(74)
        for b in (1, 5, 64):
            xs = rng.normal(0, 0.3, size=(b, k, 8))
            assert np.array_equal(forward_batch(w, xs[None])[0][0], forward_batch(w, xs)[0])
            motions = rng.normal(0, 0.3, size=(b, k, 4))
            intervals = rng.integers(1, 4, size=(b, k)).astype(np.float64)
            assert np.array_equal(pm_motions(w, motions[None], intervals[None])[0],
                                  pm_motions(w, motions, intervals))

    def test_pm_predict_equals_one_window_at_a_time(self):
        w = init_weights(seed=75, k=3, n_heads=2)
        rng = np.random.default_rng(76)
        motions = rng.normal(0, 0.1, size=(9, 3, 4))
        intervals = rng.integers(1, 3, size=(9, 3)).astype(np.float64)
        latest = rng.uniform(20, 40, size=(9, 4))
        want = np.array([[apply_motion_row(latest[i].tolist(), m) for m in
                          pm_motions(w, motions[i][None], intervals[i][None])[0].tolist()]
                         for i in range(9)])
        got = pm_predict(w, motions, intervals, latest)
        assert got.shape == (9, 2, 4)
        assert got.tobytes() == want.tobytes()

    def test_pm_predict_needs_one_latest_row_per_window(self):
        w = init_weights(seed=77, k=3, n_heads=2)
        with pytest.raises(ValidationError, match="one latest row per window"):
            pm_predict(w, np.zeros((4, 3, 4)), np.ones((4, 3)), np.full((1, 4), 10.0))
