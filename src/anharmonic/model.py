"""Oscillator models: quadratic well plus polynomial anharmonicity.

A model is V(x) = (1/2) m sum_i omega_i^2 x_i^2 + A(x) with rational mass,
rational strictly positive frequencies, and a polynomial A whose terms all
have total degree >= 3.  The rationality of the inputs keeps every formal
computation exact.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from .errors import ModelFormatError
from .series import PolySeries, format_rational, parse_rational


class OscillatorModel:
    """Immutable model data: dimension, mass, frequencies, anharmonicity."""

    __slots__ = ("dim", "mass", "omega", "anharmonic")

    def __init__(self, mass, omega: Sequence, anharmonic: PolySeries):
        self.mass = Fraction(mass)
        self.omega = tuple(Fraction(w) for w in omega)
        self.dim = len(self.omega)
        if self.mass <= 0:
            raise ModelFormatError("mass must be strictly positive")
        if self.dim < 1:
            raise ModelFormatError("at least one frequency is required")
        if any(w <= 0 for w in self.omega):
            raise ModelFormatError("frequencies must be strictly positive")
        if anharmonic.dim != self.dim:
            raise ModelFormatError(
                f"anharmonic polynomial dimension {anharmonic.dim} "
                f"does not match frequency count {self.dim}")
        first = next(anharmonic.items(), None)  # of lowest degree in grlex order
        if first and sum(first[0]) < 3:
            raise ModelFormatError(
                f"anharmonic term {list(first[0])} has total degree < 3")
        self.anharmonic = anharmonic

    @property
    def omega_min(self) -> Fraction:
        return min(self.omega)

    def anharmonic_degree(self) -> int:
        return self.anharmonic.max_degree()

    def _quadratic(self, trunc: int, power: int) -> PolySeries:
        """(1/2) m sum_i omega_i^power x_i^2."""
        return PolySeries(self.dim, trunc, {
            tuple(2 * (j == i) for j in range(self.dim)): self.mass * w ** power / 2
            for i, w in enumerate(self.omega)})

    def potential_series(self, trunc: int) -> PolySeries:
        """V(x) as a series truncated at degree ``trunc``."""
        return self._quadratic(trunc, 2) + self.anharmonic.with_truncation(trunc)

    def quadratic_action(self, trunc: int) -> PolySeries:
        """(1/2) m sum_i omega_i x_i^2, the harmonic part of the action."""
        return self._quadratic(trunc, 1)

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "mass": format_rational(self.mass),
            "omega": [format_rational(w) for w in self.omega],
            "A": {"terms": self.anharmonic.to_json()["terms"]},
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "OscillatorModel":
        try:
            dim = _size(data["dim"], "dim")
            mass = parse_rational(data["mass"])
            omega = [parse_rational(w) for w in data["omega"]]
            a_data = data.get("A") or {"terms": []}
            terms = {tuple(t["k"]): parse_rational(t["c"])
                     for t in a_data.get("terms", [])}
            if any(type(e) is not int for k in terms for e in k):
                raise ValueError("exponents must be integers")
            degrees = {k: sum(k) for k in terms}
            trunc = _size(a_data.get("trunc", max(degrees.values(), default=3)),
                          "A.trunc")
        except (AttributeError, KeyError, TypeError, ValueError,
                ZeroDivisionError) as exc:
            raise ModelFormatError(f"malformed model JSON: {exc}") from exc
        if len(omega) != dim:
            raise ModelFormatError(
                f"model declares dim={dim} but lists {len(omega)} frequencies")
        for k, degree in degrees.items():  # PolySeries drops terms above trunc
            if degree > trunc:
                raise ModelFormatError(
                    f"anharmonic term {list(k)} has degree {degree} above "
                    f"A.trunc = {trunc}", term=list(k), trunc=trunc)
        anharmonic = PolySeries(dim, trunc, terms)
        return cls(mass, omega, anharmonic)


def _size(value, name: str) -> int:
    """A JSON integer; a float such as 1.5 or a boolean is not a size."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def kappa_model(kappa: int, g=1) -> OscillatorModel:
    """1D model V = (1/2) x^2 + g x^(2 kappa), with m = omega = 1."""
    if kappa < 2:
        raise ModelFormatError("kappa must be >= 2")
    anh = PolySeries.monomial((2 * kappa,), Fraction(g), 2 * kappa)
    return OscillatorModel(1, [1], anh)


BUILTIN_KAPPA = {"quartic": 2, "sectic": 3, "octic": 4, "dectic": 5}


def builtin_model(name: str) -> OscillatorModel:
    """Built-in aliases: quartic/sectic/octic/dectic with m = omega = g = 1."""
    key = name.strip().lower()
    if key not in BUILTIN_KAPPA:
        raise ModelFormatError(
            f"unknown builtin model {name!r}; choose from "
            f"{sorted(BUILTIN_KAPPA)}")
    return kappa_model(BUILTIN_KAPPA[key])


def builtin_kappa(model: OscillatorModel) -> int | None:
    """Return kappa if the model is a pure 1D 2-kappa oscillator, else None."""
    if model.dim != 1:
        return None
    terms = list(model.anharmonic.items())
    if len(terms) != 1:
        return None
    k = terms[0][0][0]
    if k < 4 or k % 2:
        return None
    return k // 2
