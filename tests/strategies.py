"""Hypothesis strategies shared by the property tests: random rational
oscillator models in dimension 1 to 3 and sample points for them."""

from fractions import Fraction
from itertools import product

from hypothesis import strategies as st

from anharmonic.model import OscillatorModel
from anharmonic.series import PolySeries

# one dimension per example, shared by every strategy that asks for it
dims = st.shared(st.integers(min_value=1, max_value=3), key="dim")

# the exponents an anharmonicity may hold: 3 <= |k| <= 6
MONOMIALS = {dim: [k for k in product(range(7), repeat=dim) if 3 <= sum(k) <= 6]
             for dim in (1, 2, 3)}

_coefficients = st.builds(Fraction,
                          st.sampled_from([n for n in range(-6, 7) if n]),
                          st.integers(min_value=1, max_value=6))


@st.composite
def random_models(draw):
    """Rational mass and frequencies and up to three anharmonic terms drawn
    from the admissible monomials.  In dim >= 2 one draw in four is made
    resonant: omega_0 = r omega_1 (r = 2 or 3) plus a term x_0 x_1^r (a
    fourth term, or a new coefficient for a drawn one), so the
    Sternberg divisor of x_1^r on axis 0 vanishes where the field is nonzero,
    and the levels e_0 and r e_1 are degenerate."""
    dim = draw(dims)
    omega = [Fraction(draw(st.integers(min_value=1, max_value=4)),
                      draw(st.integers(min_value=1, max_value=3)))
             for _ in range(dim)]
    terms = draw(st.dictionaries(st.sampled_from(MONOMIALS[dim]), _coefficients,
                                 max_size=3))
    if dim >= 2 and draw(st.integers(min_value=0, max_value=3)) == 0:
        r = draw(st.sampled_from([2, 3]))
        omega[0] = r * omega[1]
        terms[(1, r) + (0,) * (dim - 2)] = draw(_coefficients)
    mass = Fraction(draw(st.integers(min_value=1, max_value=3)))
    return OscillatorModel(mass, omega, PolySeries(dim, 6, terms))


def model_events(model) -> list[str]:
    """Labels for ``hypothesis.event``: term count, and coupling when a term
    mixes coordinates."""
    terms = [k for k, _ in model.anharmonic.items()]
    labels = [f"{len(terms)} anharmonic terms"]
    if any(sum(e > 0 for e in k) > 1 for k in terms):
        labels.append("coupled")
    return labels


# points in the box [-2, 2]^dim, with exact zeros among the coordinates
points = dims.flatmap(lambda dim: st.lists(
    st.lists(st.one_of(st.just(0.0), st.floats(min_value=-2.0, max_value=2.0)),
             min_size=dim, max_size=dim),
    min_size=1, max_size=4))
