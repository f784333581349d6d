import gc
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rescnn import autodiff as ad
from rescnn.errors import NumericsError, ShapeError


def tensor(data, **kw):
    return ad.Tensor(np.asarray(data, dtype=np.float64), **kw)


def small_arrays(shape):
    return hnp.arrays(np.float64, shape, elements=st.floats(-3, 3, allow_nan=False))


class TestTensor:
    def test_requires_grad_gets_zero_grad_buffer(self):
        t = tensor([1.0, 2.0], requires_grad=True)
        assert t.grad.shape == (2,)
        assert (t.grad == 0).all()

    def test_plain_tensor_has_no_grad(self):
        assert tensor([1.0]).grad is None

    def test_rejects_nan_and_inf(self):
        with pytest.raises(NumericsError):
            tensor([1.0, np.nan])
        with pytest.raises(NumericsError):
            tensor([np.inf])

    def test_zero_grad_clears_accumulation(self):
        t = tensor([1.0, 2.0], requires_grad=True)
        t.grad += 5.0
        t.zero_grad()
        assert (t.grad == 0).all()


class TestLazyGradients:
    def test_op_output_has_no_buffer_before_backward(self):
        t = tensor([-1.0, 2.0], requires_grad=True)
        out = ad.relu(t)
        assert out._grad is None
        np.testing.assert_array_equal(out.grad, [0.0, 0.0])
        assert out.grad is out.grad

    def test_leaves_and_parameters_keep_eager_buffers(self):
        t = tensor([1.0, 2.0], requires_grad=True)
        assert t._grad is not None
        assert ad.relu(tensor([1.0]))._grad is None

    def test_concat_slices_are_copied(self):
        a = ad.relu(tensor([1.0, 2.0], requires_grad=True))
        b = ad.relu(tensor([3.0], requires_grad=True))
        out = ad.concat([a, b])
        out.grad[...] = [1.0, 2.0, 3.0]
        out._backward()
        a.grad += 1.0
        np.testing.assert_array_equal(out.grad, [1.0, 2.0, 3.0])


class TestBackward:
    def test_loss_must_be_scalar(self):
        t = tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ShapeError):
            ad.backward(ad.relu(t))

    def test_grads_accumulate_across_backward_calls(self):
        t = tensor([2.0], requires_grad=True)
        first = ad.sum_all(ad.relu(t))
        ad.backward(first)
        second = ad.sum_all(ad.relu(t))
        ad.backward(second)
        assert t.grad[0] == 2.0

    def test_parameter_used_twice_gets_doubled_gradient(self):
        t = tensor([1.0, 2.0], requires_grad=True)
        once = ad.sum_all(ad.relu(t))
        ad.backward(once)
        single = t.grad.copy()
        t.zero_grad()
        twice = ad.sum_all(ad.add(ad.relu(t), ad.relu(t)))
        ad.backward(twice)
        np.testing.assert_array_equal(t.grad, 2 * single)

    def test_topo_order_visits_diamond_once(self):
        t = tensor([1.0], requires_grad=True)
        mid = ad.relu(t)
        top = ad.add(mid, mid)
        order = ad.topo_order(top)
        assert len(order) == len({id(node) for node in order})
        assert order.index(mid) < order.index(top)

    def test_graph_is_freed_without_the_cyclic_collector(self):
        rng = np.random.default_rng(0)
        kernel = tensor(rng.normal(size=(3, 2, 4)), requires_grad=True)
        bias = tensor(np.zeros(4), requires_grad=True)
        gc.disable()
        try:
            hidden = ad.relu(ad.conv1d(tensor(rng.normal(size=(2, 5, 2))), kernel, bias, padding="same"))
            ref = weakref.ref(hidden)
            loss = ad.mean(ad.max_over_time(hidden))
            del hidden
            ad.backward(loss)
            assert kernel.grad.any()
            del loss
            assert ref() is None
        finally:
            gc.enable()


class TestNoGrad:
    def test_outputs_inside_the_block_are_plain_leaves(self):
        w = tensor([[1.0, -2.0]], requires_grad=True)
        with ad.no_grad():
            out = ad.relu(ad.affine(tensor([[3.0]]), w, tensor([0.0, 0.0])))
        assert not out.requires_grad
        assert out._parents == () and out._backward is None
        np.testing.assert_array_equal(out.data, [[3.0, 0.0]])
        assert ad.relu(w).requires_grad

    def test_nested_blocks_restore_the_outer_setting(self):
        w = tensor([1.0], requires_grad=True)
        with ad.no_grad():
            with ad.no_grad():
                pass
            assert not ad.relu(w).requires_grad
        assert ad.relu(w).requires_grad

    def test_setting_is_restored_after_an_exception(self):
        w = tensor([1.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            with ad.no_grad():
                raise RuntimeError("inside")
        assert ad.relu(w).requires_grad


class TestRelu:
    def test_forward_clamps_negatives(self):
        out = ad.relu(tensor([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])

    def test_subgradient_at_zero_is_zero(self):
        t = tensor([-1.0, 0.0, 2.0], requires_grad=True)
        ad.backward(ad.sum_all(ad.relu(t)))
        np.testing.assert_array_equal(t.grad, [0.0, 0.0, 1.0])

    @given(small_arrays((4,)))
    def test_idempotent(self, x):
        once = ad.relu(tensor(x)).data
        twice = ad.relu(ad.relu(tensor(x))).data
        np.testing.assert_array_equal(once, twice)


class TestAdd:
    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            ad.add(tensor([1.0]), tensor([1.0, 2.0]))

    def test_gradient_passes_to_both_sides(self):
        a = tensor([1.0, 2.0], requires_grad=True)
        b = tensor([3.0, 4.0], requires_grad=True)
        ad.backward(ad.sum_all(ad.add(a, b)))
        np.testing.assert_array_equal(a.grad, [1.0, 1.0])
        np.testing.assert_array_equal(b.grad, [1.0, 1.0])

    def test_intermediate_parents_get_distinct_buffers(self):
        t = tensor([1.0, 2.0], requires_grad=True)
        a, b = ad.relu(t), ad.dropout(t, 0.5, "test")
        out = ad.add(a, b)
        out.grad[...] = [3.0, 4.0]
        out._backward()
        assert a.grad is not b.grad and a.grad is not out.grad
        a.grad += 10.0
        np.testing.assert_array_equal(b.grad, [3.0, 4.0])
        np.testing.assert_array_equal(out.grad, [3.0, 4.0])


class TestConv1d:
    def test_same_padding_contract_example(self):
        x = tensor([[[1.0], [2.0], [3.0], [4.0]]])
        kernel = tensor(np.ones((3, 1, 1)))
        out = ad.conv1d(x, kernel, tensor([0.0]), padding="same")
        np.testing.assert_array_equal(out.data.ravel(), [3.0, 6.0, 9.0, 7.0])

    def test_valid_padding_shrinks_sequence(self):
        x = tensor([[[1.0], [2.0], [3.0], [4.0]]])
        kernel = tensor(np.ones((3, 1, 1)))
        out = ad.conv1d(x, kernel, tensor([0.0]), padding="valid")
        np.testing.assert_array_equal(out.data.ravel(), [6.0, 9.0])

    def test_even_width_same_pads_extra_zero_on_the_right(self):
        x = tensor([[[1.0], [2.0], [3.0]]])
        kernel = tensor(np.ones((2, 1, 1)))
        out = ad.conv1d(x, kernel, tensor([0.0]), padding="same")
        np.testing.assert_array_equal(out.data.ravel(), [3.0, 5.0, 3.0])

    def test_valid_window_longer_than_sequence_raises(self):
        x = tensor(np.ones((1, 2, 1)))
        kernel = tensor(np.ones((3, 1, 1)))
        with pytest.raises(ShapeError, match="exceeds sequence length"):
            ad.conv1d(x, kernel, tensor([0.0]), padding="valid")

    def test_channel_mismatch_raises(self):
        x = tensor(np.ones((1, 4, 2)))
        kernel = tensor(np.ones((3, 3, 1)))
        with pytest.raises(ShapeError, match="does not match kernel"):
            ad.conv1d(x, kernel, tensor([0.0]))

    def test_bias_shape_checked(self):
        x = tensor(np.ones((1, 4, 1)))
        kernel = tensor(np.ones((3, 1, 2)))
        with pytest.raises(ShapeError, match="bias shape"):
            ad.conv1d(x, kernel, tensor([0.0]))

    def test_bad_padding_name_raises(self):
        x = tensor(np.ones((1, 4, 1)))
        kernel = tensor(np.ones((3, 1, 1)))
        with pytest.raises(ValueError, match="padding"):
            ad.conv1d(x, kernel, tensor([0.0]), padding="reflect")

    def test_batched_matches_per_sentence(self):
        rng = np.random.default_rng(42)
        x = rng.normal(size=(3, 6, 2))
        kernel = tensor(rng.normal(size=(3, 2, 4)))
        bias = tensor(rng.normal(size=4))
        batched = ad.conv1d(tensor(x), kernel, bias, padding="same").data
        for i in range(3):
            single = ad.conv1d(tensor(x[i : i + 1]), kernel, bias, padding="same").data
            np.testing.assert_allclose(batched[i : i + 1], single)

    @staticmethod
    def _kernel_grad_reference(x, g, width, padding):
        """dL/dK[k] as an explicit sum over windows: x[b, t + k - left] outer g[b, t]."""
        left = 0 if padding == "valid" else (width - 1) // 2
        gk = np.zeros((width, x.shape[2], g.shape[2]))
        for b in range(g.shape[0]):
            for t in range(g.shape[1]):
                for k in range(width):
                    src = t + k - left
                    if 0 <= src < x.shape[1]:
                        gk[k] += np.outer(x[b, src], g[b, t])
        return gk

    @pytest.mark.parametrize(
        "shape, width, padding",
        [
            ((3, 7, 2), 3, "valid"),
            ((3, 7, 2), 3, "same"),
            ((2, 6, 3), 2, "valid"),
            ((2, 6, 3), 4, "same"),
            ((2, 5, 2), 5, "valid"),
            ((2, 5, 2), 5, "same"),
            ((6, 3), 3, "same"),
            ((6, 3), 2, "valid"),
        ],
    )
    def test_kernel_grad_matches_sum_over_windows(self, shape, width, padding):
        rng = np.random.default_rng(width + len(shape))
        x = rng.normal(size=shape)
        if x.ndim == 2:
            x = x[None]  # one sentence is a batch of one
        kernel = tensor(rng.normal(size=(width, shape[-1], 4)), requires_grad=True)
        out = ad.conv1d(tensor(x), kernel, tensor(np.zeros(4)), padding=padding)
        upstream = rng.normal(size=out.data.shape)
        out.grad[...] = upstream
        out._backward()
        want = self._kernel_grad_reference(x, upstream, width, padding)
        np.testing.assert_allclose(kernel.grad, want, rtol=1e-12, atol=1e-12)

    @given(small_arrays((1, 5, 2)), st.floats(-2, 2, allow_nan=False))
    def test_linearity_in_input(self, x, scale):
        kernel = tensor(np.arange(6.0).reshape(3, 2, 1) / 6.0)
        bias = tensor([0.0])
        direct = ad.conv1d(tensor(scale * x), kernel, bias, padding="same").data
        scaled = scale * ad.conv1d(tensor(x), kernel, bias, padding="same").data
        np.testing.assert_allclose(direct, scaled, atol=1e-12)


class TestMaxOverTime:
    def test_picks_per_channel_maxima(self):
        x = tensor([[[1.0, 5.0], [3.0, 2.0], [2.0, 4.0]]])
        out = ad.max_over_time(x)
        np.testing.assert_array_equal(out.data, [[3.0, 5.0]])

    def test_tie_routes_gradient_to_first_index(self):
        x = tensor([[[2.0], [2.0], [1.0]]], requires_grad=True)
        ad.backward(ad.sum_all(ad.max_over_time(x)))
        np.testing.assert_array_equal(x.grad.ravel(), [1.0, 0.0, 0.0])

    def test_empty_sequence_raises(self):
        with pytest.raises(ShapeError, match="empty sequence"):
            ad.max_over_time(tensor(np.zeros((1, 0, 3))))

    def test_batched_gradient_is_one_hot_per_row_channel(self):
        rng = np.random.default_rng(42)
        x = tensor(rng.normal(size=(2, 5, 3)), requires_grad=True)
        ad.backward(ad.sum_all(ad.max_over_time(x)))
        assert x.grad.sum() == 6.0
        assert ((x.grad == 0) | (x.grad == 1)).all()


class TestAffine:
    def test_contract_example(self):
        out = ad.affine(tensor([[1.0, 1.0]]), tensor([[1.0, 2.0], [3.0, 4.0]]), tensor([0.0, 1.0]))
        np.testing.assert_array_equal(out.data, [[4.0, 7.0]])

    def test_batched_matches_rows(self):
        rng = np.random.default_rng(42)
        x = rng.normal(size=(4, 3))
        w = tensor(rng.normal(size=(3, 2)))
        b = tensor(rng.normal(size=2))
        batched = ad.affine(tensor(x), w, b).data
        for i in range(4):
            np.testing.assert_allclose(batched[i : i + 1], ad.affine(tensor(x[i : i + 1]), w, b).data)

    def test_shape_errors(self):
        with pytest.raises(ShapeError, match="does not match weight"):
            ad.affine(tensor([[1.0, 2.0, 3.0]]), tensor([[1.0], [2.0]]), tensor([0.0]))
        with pytest.raises(ShapeError, match="bias shape"):
            ad.affine(tensor([[1.0, 2.0]]), tensor([[1.0], [2.0]]), tensor([0.0, 0.0]))


class TestBatchOnly:
    """The structured ops take the batched layout only; one sentence is a batch of one."""

    @pytest.mark.parametrize(
        "op, layout",
        [
            (lambda: ad.conv1d(tensor(np.ones((4, 2))), tensor(np.ones((3, 2, 1))), tensor([0.0])),
             r"\(batch, seq, in_ch\)"),
            (lambda: ad.max_over_time(tensor(np.ones((4, 2)))), r"\(batch, seq, ch\)"),
            (lambda: ad.affine(tensor([1.0, 1.0]), tensor(np.ones((2, 3))), tensor(np.zeros(3))),
             r"\(batch, in\)"),
            (lambda: ad.softmax_cross_entropy(tensor([0.0, 1.0, 2.0]), 1), r"\(batch, K\)"),
            (lambda: ad.softmax_cross_entropy(tensor([[0.0, 1.0, 2.0]]), 1), "labels shape"),
        ],
        ids=["conv1d", "max_over_time", "affine", "softmax_cross_entropy", "scalar_label"],
    )
    def test_unbatched_input_raises_shape_error(self, op, layout):
        with pytest.raises(ShapeError, match=layout):
            op()


class TestLookup:
    def test_gathers_rows(self):
        table = tensor([[0.0, 0.0], [1.0, 2.0], [3.0, 4.0]])
        out = ad.lookup(table, [2, 1, 2])
        np.testing.assert_array_equal(out.data, [[3.0, 4.0], [1.0, 2.0], [3.0, 4.0]])

    def test_repeated_ids_accumulate_gradient(self):
        table = tensor(np.zeros((3, 2)), requires_grad=True)
        ad.backward(ad.sum_all(ad.lookup(table, [1, 1, 2])))
        np.testing.assert_array_equal(table.grad, [[0.0, 0.0], [2.0, 2.0], [1.0, 1.0]])

    @staticmethod
    def _add_at_oracle(rows, width, idx, upstream):
        want = np.zeros((rows, width))
        np.add.at(want, idx, upstream)
        return want

    @pytest.mark.parametrize("width", [1, 5, 50])
    @pytest.mark.parametrize("idx_shape", [(64, 30), (7,), (0,), (0, 30)])
    def test_scatter_equals_add_at_bit_for_bit(self, width, idx_shape):
        rng = np.random.default_rng(width * 100 + len(idx_shape))
        rows = 61
        # ids skew toward PAD (0) and a few hot rows, so most rows repeat
        idx = np.where(rng.random(idx_shape) < 0.3, 0, rng.integers(0, 8, idx_shape))
        idx = np.where(rng.random(idx_shape) < 0.2, rng.integers(0, rows, idx_shape), idx)
        table = tensor(rng.normal(size=(rows, width)), requires_grad=True)
        out = ad.lookup(table, idx)
        upstream = rng.normal(size=out.data.shape) * 10.0 ** rng.integers(-8, 8, out.data.shape)
        out.grad[...] = upstream
        out._backward()
        want = self._add_at_oracle(rows, width, idx, upstream)
        assert table.grad.tobytes() == want.tobytes()

    def test_out_of_range_names_the_offender(self):
        table = tensor(np.zeros((3, 2)))
        with pytest.raises(IndexError, match="7"):
            ad.lookup(table, [0, 7])
        with pytest.raises(IndexError):
            ad.lookup(table, [-1])

    def test_empty_indices_give_empty_rows(self):
        table = tensor(np.zeros((3, 2)))
        assert ad.lookup(table, np.zeros(0, dtype=np.int64)).data.shape == (0, 2)

    def test_table_must_be_two_dimensional(self):
        with pytest.raises(ShapeError):
            ad.lookup(tensor([1.0, 2.0]), [0])


class TestDropout:
    def test_keep_prob_validation(self):
        t = tensor([1.0])
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                ad.dropout(t, bad, "test")

    def test_train_mode_requires_rng(self):
        with pytest.raises(ValueError):
            ad.dropout(tensor([1.0]), 0.5, "train")

    def test_unknown_mode_raises(self):
        with pytest.raises(ValueError):
            ad.dropout(tensor([1.0]), 0.5, "predict")

    def test_test_mode_scales_by_keep_prob(self):
        out = ad.dropout(tensor([2.0, -4.0]), 0.25, "test")
        np.testing.assert_array_equal(out.data, [0.5, -1.0])

    def test_train_mask_is_binary(self):
        rng = np.random.default_rng(42)
        x = np.ones(1000)
        out = ad.dropout(tensor(x), 0.5, "train", rng).data
        assert set(np.unique(out)) <= {0.0, 1.0}
        assert 400 < out.sum() < 600

    def test_keep_prob_one_is_identity_in_both_modes(self):
        x = tensor([1.5, -2.0])
        rng = np.random.default_rng(42)
        np.testing.assert_array_equal(ad.dropout(x, 1.0, "train", rng).data, x.data)
        np.testing.assert_array_equal(ad.dropout(x, 1.0, "test").data, x.data)

    def test_gradient_uses_the_same_mask(self):
        rng = np.random.default_rng(42)
        x = tensor(np.ones(100), requires_grad=True)
        out = ad.dropout(x, 0.5, "train", rng)
        ad.backward(ad.sum_all(out))
        np.testing.assert_array_equal(x.grad, out.data)


class TestSoftmaxCrossEntropy:
    def test_uniform_logits_give_log_k(self):
        loss = ad.softmax_cross_entropy(tensor([[0.0, 0.0, 0.0]]), [1])
        assert loss.data.shape == (1,)
        np.testing.assert_allclose(loss.data[0], np.log(3.0), rtol=1e-15)

    def test_gradient_is_softmax_minus_one_hot(self):
        logits = tensor([[1.0, 2.0, 0.5]], requires_grad=True)
        ad.backward(ad.softmax_cross_entropy(logits, [2]))
        e = np.exp(logits.data - logits.data.max())
        probs = e / e.sum()
        probs[0, 2] -= 1.0
        np.testing.assert_allclose(logits.grad, probs, rtol=1e-12)

    def test_large_logits_stay_finite(self):
        loss = ad.softmax_cross_entropy(tensor([[1000.0, 0.0]]), [0])
        assert loss.data[0] < 1e-10

    def test_batched_matches_per_row(self):
        rng = np.random.default_rng(42)
        logits = rng.normal(size=(4, 3))
        labels = np.array([0, 2, 1, 1])
        batched = ad.softmax_cross_entropy(tensor(logits), labels).data
        for i in range(4):
            single = ad.softmax_cross_entropy(tensor(logits[i : i + 1]), labels[i : i + 1]).data
            np.testing.assert_allclose(batched[i : i + 1], single)

    def test_label_out_of_range_raises(self):
        with pytest.raises(IndexError):
            ad.softmax_cross_entropy(tensor([[0.0, 0.0]]), [2])
        with pytest.raises(IndexError):
            ad.softmax_cross_entropy(tensor([[0.0, 0.0]]), [-1])

    def test_label_count_must_match_rows(self):
        with pytest.raises(ShapeError):
            ad.softmax_cross_entropy(tensor([[0.0, 0.0]]), [0, 1])

    @given(small_arrays((3,)), st.integers(0, 2))
    def test_loss_is_negative_log_probability(self, logits, label):
        loss = float(ad.softmax_cross_entropy(tensor(logits[None]), [label]).data[0])
        e = np.exp(logits - logits.max())
        np.testing.assert_allclose(loss, -np.log(e[label] / e.sum()), atol=1e-12)
        assert loss >= -1e-12


class TestConcatMeanScaleHelpers:
    def test_concat_splits_gradient_by_offsets(self):
        a = tensor(np.ones((2, 2)), requires_grad=True)
        b = tensor(np.ones((2, 3)), requires_grad=True)
        out = ad.concat([a, b], axis=-1)
        assert out.data.shape == (2, 5)
        ad.backward(ad.sum_all(out))
        assert (a.grad == 1).all() and (b.grad == 1).all()

    def test_mean_gradient_is_uniform(self):
        t = tensor([1.0, 3.0, 5.0, 7.0], requires_grad=True)
        ad.backward(ad.mean(t))
        np.testing.assert_allclose(t.grad, 0.25)


class TestAdam:
    def test_zero_gradient_leaves_parameter_unchanged(self):
        p = tensor([1.0, 2.0], requires_grad=True)
        state = ad.AdamState.for_params([p])
        ad.adam_step([p], [np.zeros(2)], state, lr=0.1)
        np.testing.assert_array_equal(p.data, [1.0, 2.0])

    def test_first_step_size_approaches_lr(self):
        p = tensor([0.0], requires_grad=True)
        state = ad.AdamState.for_params([p])
        ad.adam_step([p], [np.array([100.0])], state, lr=0.01)
        np.testing.assert_allclose(p.data, [-0.01], rtol=1e-6)

    def test_step_count_advances(self):
        p = tensor([0.0], requires_grad=True)
        state = ad.AdamState.for_params([p])
        for _ in range(3):
            ad.adam_step([p], [np.array([1.0])], state, lr=0.1)
        assert state.step_count == 3

    def test_mismatched_lengths_raise(self):
        p = tensor([0.0], requires_grad=True)
        state = ad.AdamState.for_params([p])
        with pytest.raises(ShapeError):
            ad.adam_step([p], [], state, lr=0.1)

    def test_mismatched_shapes_raise(self):
        p = tensor([0.0], requires_grad=True)
        state = ad.AdamState.for_params([p])
        with pytest.raises(ShapeError):
            ad.adam_step([p], [np.zeros(2)], state, lr=0.1)

    def test_descends_a_quadratic(self):
        p = tensor([5.0], requires_grad=True)
        state = ad.AdamState.for_params([p])
        for _ in range(2000):
            ad.adam_step([p], [2.0 * p.data], state, lr=0.01)
        assert abs(p.data[0]) < 1e-2


class TestFiniteDiffCheck:
    def _composite(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(2, 6, 3))
        kernel = tensor(rng.normal(size=(3, 3, 4)) * 0.4, requires_grad=True)
        bias = tensor(rng.normal(size=4) * 0.1, requires_grad=True)
        weight = tensor(rng.normal(size=(4, 3)) * 0.4, requires_grad=True)
        labels = np.array([0, 2])

        def build():
            h = ad.relu(ad.conv1d(tensor(x), kernel, bias, padding="same"))
            pooled = ad.max_over_time(h)
            logits = ad.affine(pooled, weight, tensor(np.zeros(3)))
            return ad.mean(ad.softmax_cross_entropy(logits, labels)), {
                "kernel": kernel,
                "bias": bias,
                "weight": weight,
            }

        return build

    def test_composite_graph_matches_central_differences(self):
        result = ad.finite_diff_check(self._composite(42), eps=1e-5)
        assert result.max_rel_err < 1e-4
        assert set(result.per_param) == {"kernel", "bias", "weight"}

    def test_report_prints_per_parameter_lines(self):
        result = ad.finite_diff_check(self._composite(7), eps=1e-5)
        text = str(result)
        assert "kernel" in text and "OVERALL" in text

    def test_detects_a_broken_gradient(self, monkeypatch):
        # flipping the conv input gradient must blow past any sane threshold
        true_fn = ad._conv_input_grad
        monkeypatch.setattr(ad, "_conv_input_grad", lambda *a: -true_fn(*a))
        rng = np.random.default_rng(3)
        x = tensor(rng.normal(size=(1, 4, 2)), requires_grad=True)
        kernel = tensor(rng.normal(size=(3, 2, 2)), requires_grad=True)

        def build():
            out = ad.conv1d(x, kernel, tensor(np.zeros(2)), padding="same")
            return ad.sum_all(out), {"x": x}

        result = ad.finite_diff_check(build, eps=1e-5)
        assert result.max_rel_err > 1e-2
