"""Shared golden systems and their hand-checked closed forms.

``model3``: three-state, four-output, single-shock network admitting
both a stable and an unstable driving-channel selection.
``model2``: two-state, two-output network where every admissible
selection yields an unstable relation.
``model_shear``: strongly non-normal two-state model whose sampled
noise intensity, once perturbed, breaks the de-sampling
semidefiniteness condition.
``near_dependent_outputs`` and ``near_dependent_noise``: two-shock
models whose two outputs, or two noise columns, differ by 1e-7 or 1e-6
of a direction: full rank on the singular values of CB and of B, rank
one on their squares.
"""

import numpy as np

from dynrel.kernels import as_matrix
from dynrel.lti import StateSpace, validate_ct_model

A3 = np.array([[-9.0, -4.0, -6.0],
               [6.0, 1.0, 6.0],
               [4.0, 2.0, 2.0]])
B3 = np.array([[0.0], [4.0], [-4.0]])
C3 = np.array([[1.0, 1.0, 0.0],
               [2.0, 2.0, 1.0],
               [0.0, 0.0, 1.0],
               [3.0, 1.0, 2.0]])

GAMMA3_FIRST = np.array([[-9.0, -4.0, -6.0],
                         [9.0, 4.0, 6.0],
                         [1.0, -1.0, 2.0]])
GAMMA3_SECOND = np.array([[-9.0, -4.0, -6.0],
                          [8.0, 5.0, 4.0],
                          [2.0, -2.0, 4.0]])

# minimal realization of the first-selection relation, for cross-checks
F3_MIN_A = np.diag([-2.0, -1.0])
F3_MIN_B = np.array([[1.0], [1.0]])
F3_MIN_C = np.array([[5.0, -8.0], [5.0, -8.0], [-10.0, 8.0]])
F3_MIN_D = np.array([[1.0], [-1.0], [-1.0]])

A2 = np.array([[-3.0, -4.0 / 3.0],
               [1.5, 0.0]])
B2 = np.array([[-3.0], [-2.0]])
C2 = np.array([[1.0, 0.0],
               [1.0, -1.0]])

GAMMA2_FIRST = np.array([[0.0, 0.0], [3.5, 8.0 / 9.0]])
GAMMA2_SECOND = np.array([[10.5, 8.0 / 3.0], [10.5, 8.0 / 3.0]])

A_SHEAR = np.array([[-1.0, 8.0], [0.0, -2.0]])
B_SHEAR = np.array([[1.0], [0.4]])
C_SHEAR = np.eye(2)


def constant(d) -> StateSpace:
    """Static-gain system with value ``d`` and no dynamics."""
    d = as_matrix(d, name="D")
    return StateSpace(np.zeros((0, 0)), np.zeros((0, d.shape[1])),
                      np.zeros((d.shape[0], 0)), d)


def zero(n_out: int, n_in: int) -> StateSpace:
    """Identically zero transfer function of the given shape."""
    return constant(np.zeros((n_out, n_in)))


def model3():
    return validate_ct_model(StateSpace(A3, B3, C3))


def model2():
    return validate_ct_model(StateSpace(A2, B2, C2))


def model_shear():
    return validate_ct_model(StateSpace(A_SHEAR, B_SHEAR, C_SHEAR))


# C = [c; c + 1e-7 r]: sigma(CB) has ratio about 4e-8
A_NEAR3 = np.array([[-1.0, 0.5, 0.0], [-0.5, -2.0, 0.3], [0.0, 0.2, -3.0]])
B_NEAR3 = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
C_NEAR3 = np.array([[1.0, 2.0, -1.0], [1.0 + 3e-8, 2.0 - 1e-7, -1.0 + 5e-8]])

# B = [b, b + 1e-6 r]: sigma(B) has ratio about 3e-7
A_NEAR4 = np.diag([-1.0, -2.0, -3.0, -4.0]) + np.diag([0.5, 0.5, 0.5], 1)
B_NEAR4 = np.array([[1.0, 1.0 + 2e-7], [1.0, 1.0 - 5e-7], [1.0, 1.0 + 3e-7], [1.0, 1.0 + 1e-6]])
C_NEAR4 = np.eye(4)


def near_dependent_outputs():
    return validate_ct_model(StateSpace(A_NEAR3, B_NEAR3, C_NEAR3))


def near_dependent_noise():
    return validate_ct_model(StateSpace(A_NEAR4, B_NEAR4, C_NEAR4))


def f3_first(s):
    """First-selection relation of model3: strictly stable, degree 2."""
    den = (s + 2.0) * (s + 1.0)
    return np.array([[s**2 - 9.0],
                     [-s**2 - 6.0 * s - 13.0],
                     [-s**2 - 5.0 * s + 4.0]]) / den


def f3_second(s):
    """Second-selection relation of model3: unstable (pole at +3)."""
    den = (s + 3.0) * (s - 3.0)
    return np.array([[s**2 + 3.0 * s + 2.0],
                     [-s**2 - 6.0 * s - 13.0],
                     [-s**2 - 5.0 * s + 4.0]]) / den


def f2_first(s):
    """model2, driving channel = row 0: scalar, pole 8/9."""
    return np.array([[(6.0 * s - 79.0) / (2.0 * (9.0 * s - 8.0))]])


def f2_second(s):
    """model2, driving channel = row 1: scalar, pole 79/6."""
    return np.array([[2.0 * (9.0 * s - 8.0) / (6.0 * s - 79.0)]])


def model_with_axis_zero():
    """Two identical output channels sharing the scalar transfer
    function (s^2 + 1) / (s + 1)^3, whose imaginary-axis zero at
    omega = 1 drops the spectral rank at that single frequency."""
    a = np.array([[0.0, 1.0, 0.0],
                  [0.0, 0.0, 1.0],
                  [-1.0, -3.0, -3.0]])
    b = np.array([[0.0], [0.0], [1.0]])
    c = np.array([[1.0, 0.0, 1.0],
                  [1.0, 0.0, 1.0]])
    return validate_ct_model(StateSpace(a, b, c))


def hidden_unstable_zero_h_loop():
    """Stable 2 x 1 forward map F closed by a 1 x 2 return map H that is
    identically zero (C = 0, D = 0) but has an unstable Jordan block at
    s = 1 in its unobservable states. T = [[I, F], [0, I]] is stable."""
    f_sys = StateSpace([[-1.5, 0.0], [0.0, -2.0]], [[1.0], [2.0]],
                       [[1.0, 2.0], [3.0, 4.0]], [[0.1], [0.1]])
    h_sys = StateSpace([[1.0, 1.0], [0.0, 1.0]], [[1.0, 2.0], [3.0, 4.0]],
                       [[0.0, 0.0]], [[0.0, 0.0]])
    return f_sys, h_sys
