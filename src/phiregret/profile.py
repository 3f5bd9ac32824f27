"""Correlated strategy profiles: uniform-over-rounds mixtures of per-player
product distributions, with bit-exact CSV round-tripping.

A profile stores, for each round and player, a list of mixture components.
The sampling semantics are: draw a round uniformly; then each player
independently draws one of its components uniformly and an atom from it.
Components are either explicit mixtures (SupportMix: a weight array and a
matrix of 0/1 atom rows) or implicit behavioral descriptors; export expands
descriptors into their explicit support and writes each component's atoms
from its arrays, and import rebuilds each component's arrays from its rows.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParseError
from .maps import SupportMix

HEADER = "t,player,ell,j,alpha,pure-strategy-bits"


class CorrelatedProfile:
    def __init__(self, n_players, dims=None):
        self.n_players = int(n_players)
        self.rounds = 0
        self.dims = list(dims) if dims is not None else None
        self._components: list[list[list]] = []  # [t][player] -> components

    def add_round(self, per_player_components):
        """Append one round: a per-player list of mixture components.

        A component must expose mean() (and support() for export).
        A bare component is treated as a one-component mixture.
        """
        if len(per_player_components) != self.n_players:
            raise ValueError(
                f"expected components for {self.n_players} players, "
                f"got {len(per_player_components)}"
            )
        row = []
        for comps in per_player_components:
            if not isinstance(comps, (list, tuple)):
                comps = [comps]
            if not comps:
                raise ValueError("a player needs at least one component")
            row.append(list(comps))
        self._components.append(row)
        self.rounds += 1

    def require_shape(self, dims):
        """Raise ValueError unless the profile has one player per entry of
        ``dims`` and, where it records them, those strategy lengths."""
        if self.n_players != len(dims):
            raise ValueError(
                f"the profile has {self.n_players} players, the game {len(dims)}"
            )
        if self.dims is not None and list(self.dims) != list(dims):
            raise ValueError(
                f"the profile's strategy lengths {list(self.dims)} do not match "
                f"the game's {list(dims)}"
            )

    def components(self, t, player):
        return self._components[t][player]

    def round_mean(self, t, player):
        return uniform_mean(self._components[t][player])

    def stacked_means(self, player):
        """T x dim matrix of the player's per-round mean strategies."""
        return np.array([self.round_mean(t, player) for t in range(self.rounds)])

    def export_csv(self):
        """One row per pure atom: t,player,ell,j,alpha,pure-strategy-bits.

        Indices are 1-based; alpha values carry 17 significant digits so the
        import reproduces them bit for bit. Each component's bit strings are
        cut from one byte buffer of its atom matrix.
        """
        lines = [HEADER]
        for t in range(self.rounds):
            for i in range(self.n_players):
                for ell, comp in enumerate(self._components[t][i], start=1):
                    mix = comp.support()
                    d = mix.matrix.shape[1]
                    bits = (np.rint(mix.matrix).astype(np.uint8) + 48).tobytes().decode()
                    prefix = f"{t + 1},{i + 1},{ell},"
                    for j, alpha in enumerate(mix.weights.tolist()):
                        lines.append(
                            f"{prefix}{j + 1},{alpha:.17g},{bits[j * d:(j + 1) * d]}"
                        )
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text):
        """Read what export_csv writes; raise ParseError on anything else.

        Each row needs positive integer t, player, ell and j, a finite
        nonnegative alpha and a nonempty string of 0s and 1s whose length is
        the same for all of a player's rows; each component's alphas must sum
        to 1 within 1e-9. A component's atom matrix is decoded from its
        joined bit strings in one step.
        """
        rows = {}  # (t, player) -> {ell: (first line, alphas, bit strings)}
        dims = {}
        lines = [ln.strip() for ln in text.strip().splitlines()]
        if not lines or lines[0] != HEADER:
            raise ParseError("missing profile header row")
        for lineno, line in enumerate(lines[1:], start=2):
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 6:
                raise ParseError(f"line {lineno}: expected 6 fields, got {len(parts)}")
            try:
                t, player, ell, j = map(int, parts[:4])
                alpha = float(parts[4])
            except ValueError as exc:
                raise ParseError(f"line {lineno}: {exc}") from None
            bits = parts[5]
            if min(t, player, ell, j) < 1:
                raise ParseError(f"line {lineno}: indices are 1-based")
            if not math.isfinite(alpha):
                raise ParseError(f"line {lineno}: atom weight {alpha} is not finite")
            if alpha < 0:
                raise ParseError(f"line {lineno}: negative atom weight {alpha}")
            if not bits or bits.strip("01"):
                raise ParseError(f"line {lineno}: pure-strategy bits {bits!r} are not 0s and 1s")
            if dims.setdefault(player - 1, len(bits)) != len(bits):
                raise ParseError(f"line {lineno}: inconsistent strategy length")
            levels = rows.setdefault((t - 1, player - 1), {})
            if ell not in levels:
                levels[ell] = (lineno, [], [])
            levels[ell][1].append(alpha)
            levels[ell][2].append(bits)
        n_rounds = max((t for t, _ in rows), default=-1) + 1
        n_players = max((i for _, i in rows), default=-1) + 1
        profile = cls(n_players, dims=[dims.get(i) for i in range(n_players)])
        for t in range(n_rounds):
            per_player = []
            for i in range(n_players):
                levels = rows.get((t, i))
                if not levels:
                    raise ParseError(f"round {t + 1}: no atoms for player {i + 1}")
                per_player.append([_component(*levels[ell]) for ell in sorted(levels)])
            profile.add_round(per_player)
        return profile

    def __repr__(self):
        return f"CorrelatedProfile(players={self.n_players}, rounds={self.rounds})"


def uniform_mean(components):
    """The uniform average of the components' means, added in order."""
    total = components[0].mean().copy()
    for c in components[1:]:
        total += c.mean()
    return total / len(components)


def _component(lineno, alphas, bits):
    """One imported mixture: its weights must sum to 1 within 1e-9."""
    total = math.fsum(alphas)
    if abs(total - 1.0) > 1e-9:
        raise ParseError(f"line {lineno}: component weights sum to {total}, expected 1")
    matrix = np.frombuffer("".join(bits).encode(), dtype=np.uint8).reshape(len(bits), -1)
    return SupportMix.from_arrays(alphas, matrix - 48)
