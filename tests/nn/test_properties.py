"""Property-based tests (hypothesis) for the autograd engine invariants."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.nn import Tensor, concat
from repro.nn import functional as F


finite_floats = st.floats(
    min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False
)


def small_arrays(max_side=4):
    shapes = st.tuples(
        st.integers(1, max_side), st.integers(1, max_side)
    )
    return shapes.flatmap(
        lambda s: arrays(np.float64, s, elements=finite_floats)
    )


@settings(max_examples=40, deadline=None)
@given(small_arrays())
def test_softmax_is_distribution(data):
    out = F.softmax(Tensor(data), axis=-1).data
    assert np.all(out >= 0)
    assert np.allclose(out.sum(axis=-1), 1.0, atol=1e-9)


@settings(max_examples=40, deadline=None)
@given(small_arrays(), st.floats(min_value=-5, max_value=5, allow_nan=False))
def test_softmax_shift_invariance(data, shift):
    a = F.softmax(Tensor(data), axis=-1).data
    b = F.softmax(Tensor(data + shift), axis=-1).data
    assert np.allclose(a, b, atol=1e-9)


@settings(max_examples=40, deadline=None)
@given(small_arrays())
def test_add_commutative_gradients(data):
    x = Tensor(data, requires_grad=True)
    y = Tensor(data.copy(), requires_grad=True)
    (x + y).sum().backward()
    assert np.allclose(x.grad, np.ones_like(data))
    assert np.allclose(y.grad, np.ones_like(data))


@settings(max_examples=40, deadline=None)
@given(small_arrays())
def test_mul_gradient_is_other_operand(data):
    x = Tensor(data, requires_grad=True)
    y = Tensor(np.full_like(data, 3.0))
    (x * y).sum().backward()
    assert np.allclose(x.grad, 3.0)


@settings(max_examples=40, deadline=None)
@given(small_arrays())
def test_sum_then_backward_gives_ones(data):
    x = Tensor(data, requires_grad=True)
    x.sum().backward()
    assert np.allclose(x.grad, 1.0)


@settings(max_examples=40, deadline=None)
@given(small_arrays())
def test_reshape_roundtrip_preserves_gradient(data):
    x = Tensor(data, requires_grad=True)
    x.reshape(-1).reshape(data.shape).sum().backward()
    assert np.allclose(x.grad, 1.0)


@settings(max_examples=40, deadline=None)
@given(small_arrays())
def test_relu_output_nonnegative(data):
    out = Tensor(data).relu().data
    assert np.all(out >= 0)
    assert np.allclose(out, np.maximum(data, 0))


@settings(max_examples=40, deadline=None)
@given(small_arrays())
@example(np.array([[-0.5]]))  # the shift below lands this row on exactly zero
def test_normalize_produces_unit_rows(data):
    # Skip rows that are (near) zero: normalize keeps them near zero.
    data = data + 0.5
    data = data[np.linalg.norm(data, axis=-1) >= 1e-3]
    normed = F.normalize(Tensor(data)).data
    norms = np.linalg.norm(normed, axis=-1)
    assert np.allclose(norms, 1.0, atol=1e-6)


@settings(max_examples=40, deadline=None)
@given(small_arrays(), small_arrays())
def test_concat_preserves_content(a, b):
    if a.shape[0] != b.shape[0]:
        a = a[: min(a.shape[0], b.shape[0])]
        b = b[: min(a.shape[0], b.shape[0])]
    out = concat([Tensor(a), Tensor(b)], axis=1).data
    assert np.allclose(out[:, : a.shape[1]], a)
    assert np.allclose(out[:, a.shape[1] :], b)


@settings(max_examples=40, deadline=None)
@given(
    arrays(np.float64, (3, 4), elements=finite_floats),
    st.integers(0, 3),
)
def test_cross_entropy_nonnegative(logits, label):
    labels = np.array([label, label, label])
    loss = F.cross_entropy(Tensor(logits), labels)
    assert loss.item() >= -1e-9


@settings(max_examples=40, deadline=None)
@given(arrays(np.float64, (5,), elements=finite_floats))
def test_margin_loss_nonnegative(scores):
    pos = Tensor(scores)
    neg = Tensor(scores[::-1].copy())
    loss = F.margin_ranking_loss(pos, neg, margin=1.0)
    assert loss.item() >= 0.0
