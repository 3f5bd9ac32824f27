"""Correlated strategy profiles: uniform-over-rounds mixtures of per-player
product distributions, with bit-exact CSV round-tripping.

The sampling semantics are: draw a round uniformly; then each player
independently draws one of its components uniformly and an atom from it.
Components are either explicit mixtures (SupportMix: a weight array and a
matrix of 0/1 atom rows) or implicit behavioral descriptors.

A profile keeps them in one of two forms. ``CorrelatedProfile.from_columns``,
which ``from_csv`` and ``nfg.run_ce`` both use, keeps each player's four
columns as they are: the atom weights and 0/1 atom rows of all its
components in (round, component) order, each component's atom count and
each component's round. ``add_round`` keeps a per-player list of component
objects for each round, since a behavioral descriptor has no columns short
of expanding its support. Means are computed when first read: a column
profile's round means in one pass per player, and its ``SupportMix`` views
with one ``SupportMix.split`` per player when ``components`` is first read.

Export gathers every component's rows into columns, a descriptor's through
its explicit support, and formats them ROW_BLOCK rows at a time. Import
parses the rows in blocks, column by column, and hands each player's
columns to ``from_columns``.
"""

from __future__ import annotations

import math
from itertools import chain, repeat

import numpy as np

from .errors import ParseError
from .maps import SupportMix, segment_means

HEADER = "t,player,ell,j,alpha,pure-strategy-bits"
ROW_BLOCK = 1024  # CSV rows parsed or formatted at a time; bounds the transient lists
ROW_FORMAT = "%d,%d,%d,%d,%.17g,%s\n"


class CorrelatedProfile:
    """``columns`` is the per-player ``(weights, matrix, sizes,
    comp_rounds)`` of a profile built by ``from_columns``, else None."""

    def __init__(self, n_players, dims=None):
        self.n_players = int(n_players)
        self.rounds = 0
        self.dims = list(dims) if dims is not None else None
        self.columns = None
        self._lists = [[] for _ in range(self.n_players)]  # [player][t] -> components
        self._component_means = [None] * self.n_players
        self._round_means = [None] * self.n_players

    def add_round(self, per_player_components):
        """Append one round: a per-player list of mixture components.

        A component must expose mean() (and support() for export).
        A bare component is treated as a one-component mixture. Every
        component of a player has the same strategy length: its entry of
        ``dims``, or else that of the player's first round.
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
        dims = self.dims if self.dims is not None else [_length(c[0]) for c in row]
        for i, comps in enumerate(row):
            for comp in comps:
                if _length(comp) != dims[i]:
                    raise ValueError(
                        f"player {i + 1}: a component of strategy length "
                        f"{_length(comp)}, expected {dims[i]}"
                    )
        if self.columns is not None:  # later rounds are objects: cut the columns first
            self._lists = [self._cut(i) for i in range(self.n_players)]
            self.columns = None
        self.dims = dims
        for lists, comps in zip(self._lists, row):
            lists.append(comps)
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
        return self._cut(player)[t]

    def _cut(self, player):
        """The player's per-round component lists; a column profile cuts
        them, means filled in, with one ``SupportMix.split`` on the first
        call."""
        if self._lists[player] is None:
            weights, matrix, sizes, comp_rounds = self.columns[player]
            mixes = SupportMix.split(weights, matrix, sizes, self._means(player)[0])
            cuts = np.searchsorted(comp_rounds, np.arange(self.rounds + 1)).tolist()
            self._lists[player] = [mixes[a:b] for a, b in zip(cuts, cuts[1:])]
        return self._lists[player]

    def round_mean(self, t, player):
        """The uniform mean of round t's components, as ``uniform_mean``."""
        if self.columns is None:
            return uniform_mean(self._lists[player][t])
        if self._round_means[player] is None:
            self._means(player)
        return self._round_means[player][t]

    def stacked_means(self, player):
        """T x dim matrix of the player's per-round mean strategies."""
        return np.array([self.round_mean(t, player) for t in range(self.rounds)])

    def _means(self, player):
        """A column profile's component means and round means of the player,
        computed on the first call. A round's mean adds its component means in
        order and divides by their count, as ``uniform_mean`` does, one
        cumsum per distinct component count; with one component a round it
        is that component's mean."""
        if self._round_means[player] is None:
            weights, matrix, sizes, comp_rounds = self.columns[player]
            means = rounds = segment_means(weights, matrix, sizes)
            if len(comp_rounds) > self.rounds:
                first = np.searchsorted(comp_rounds, np.arange(self.rounds + 1))
                counts = np.diff(first)
                rounds = np.empty((self.rounds, matrix.shape[1]))
                for n in sorted(set(counts.tolist())):
                    pick = (counts == n).nonzero()[0]
                    total = np.add.accumulate(means[first[pick, None] + np.arange(n)], axis=1)
                    rounds[pick] = total[:, -1] / n
                rounds.flags.writeable = False
            self._component_means[player], self._round_means[player] = means, rounds
        return self._component_means[player], self._round_means[player]

    def export_csv(self):
        """One row per pure atom: t,player,ell,j,alpha,pure-strategy-bits.

        Indices are 1-based; alpha values carry 17 significant digits so the
        import reproduces them bit for bit. Each player's rows are gathered
        into columns (``columns``, else ``_gather``), with one bit string per
        row cut from the byte buffer of its atom matrix; a stable sort by
        round puts them in (t, player, ell, j) order, and each block of
        ROW_BLOCK rows is written by one %-format.
        """
        if not (self.rounds and self.n_players):
            return HEADER + "\n"
        parts = [[] for _ in range(6)]  # t, player, ell, j, alpha, bits
        for i in range(self.n_players):
            weights, matrix, sizes, comp_rounds = (
                self.columns[i] if self.columns is not None else self._gather(i))
            starts = sizes.cumsum() - sizes
            ell = np.arange(len(sizes)) - np.searchsorted(comp_rounds, comp_rounds) + 1
            for part, col in zip(parts, (
                np.repeat(comp_rounds + 1, sizes),
                np.full(len(weights), i + 1),
                np.repeat(ell, sizes),
                np.arange(len(weights)) - np.repeat(starts, sizes) + 1,
                weights,
                _bit_strings(matrix),
            )):
                part.append(col)
        order = np.argsort(np.concatenate(parts[0]), kind="stable")
        columns = [np.concatenate(part)[order] for part in parts]
        columns[5] = columns[5].astype(str)
        out = [HEADER + "\n"]
        for k in range(0, len(order), ROW_BLOCK):
            block = [col[k:k + ROW_BLOCK].tolist() for col in columns]
            out.append(ROW_FORMAT * len(block[0]) % tuple(chain.from_iterable(zip(*block))))
        return "".join(out)

    def _gather(self, player):
        """The player's columns as ``from_columns`` takes them, gathered from
        the components of a profile built by ``add_round``; a descriptor's
        atoms are those of its support()."""
        mixes = [comp.support() for comps in self._lists[player] for comp in comps]
        comp_rounds = np.repeat(np.arange(self.rounds), [len(c) for c in self._lists[player]])
        return (np.concatenate([m.weights for m in mixes]),
                np.concatenate([m.matrix for m in mixes]),
                np.array([m.n_atoms for m in mixes]), comp_rounds)

    @classmethod
    def from_csv(cls, text):
        """Read what export_csv writes; raise ParseError on anything else.

        Each row needs positive integer t, player, ell and j, a finite
        nonnegative alpha and a nonempty string of 0s and 1s whose length is
        the same for all of a player's rows; the first bad line is named.
        Then, round by round and player by player, every player needs atoms
        and each component's alphas must sum to 1 within 1e-9. Last, each
        component's j must count 1, 2, ... in file order.

        Rows are parsed ROW_BLOCK at a time, column by column. One stable
        sort groups them by (player, t, ell) with file order kept within a
        component, and each player's components and their means are cut from
        one weight array and one atom matrix (``from_columns``).
        """
        lines = text.strip().splitlines()
        if not lines or lines[0].strip() != HEADER:
            raise ParseError("missing profile header row")
        dims = {}
        blocks = [_read_block(lines[k:k + ROW_BLOCK], k + 1, dims)
                  for k in range(1, len(lines), ROW_BLOCK)]
        del lines  # the line strings go before the components are built
        if not sum(len(block[0]) for block in blocks):
            return cls(0, dims=[])
        t, player, ell, j, alpha, lens, lineno, chars = map(np.concatenate, zip(*blocks))
        del blocks
        # past int64 the parser keeps Python ints: a round or player that
        # large always leaves an earlier one missing, and only ell's order counts
        t, player = (np.minimum(col, 2**62).astype(np.int64) for col in (t, player))
        if ell.dtype == object:
            ell = np.unique(ell, return_inverse=True)[1]
        first_byte = np.cumsum(lens) - lens
        order = np.lexsort((ell, t, player))
        t, player, ell, j, alpha, lineno, first_byte = (
            col[order] for col in (t, player, ell, j, alpha, lineno, first_byte)
        )
        new = np.ones(len(t), dtype=bool)
        new[1:] = (player[1:] != player[:-1]) | (t[1:] != t[:-1]) | (ell[1:] != ell[:-1])
        starts = new.nonzero()[0]
        sizes = np.concatenate((starts[1:], [len(t)])) - starts
        ct, cp = t[starts], player[starts]
        n_rounds, n_players = int(t.max()), int(player[-1])
        _check_rounds(n_rounds, n_players, ct, cp, alpha, starts, sizes, lineno[starts])
        position = np.arange(len(j)) - np.repeat(starts, sizes) + 1
        wrong = (j != position).nonzero()[0]
        if len(wrong):
            w = wrong[np.argmin(lineno[wrong])]
            raise ParseError(
                f"line {lineno[w]}: j is {j[w]}, expected {position[w]} "
                "(a component's atoms count 1, 2, ... in file order)"
            )

        row_bounds = np.searchsorted(player, np.arange(1, n_players + 2))
        comp_bounds = np.searchsorted(cp, np.arange(1, n_players + 2))
        columns = []
        for i in range(n_players):
            rows = slice(row_bounds[i], row_bounds[i + 1])
            comps = slice(comp_bounds[i], comp_bounds[i + 1])
            bits = chars[first_byte[rows, None] + np.arange(dims[i + 1])]
            columns.append((alpha[rows], bits - 48.0, sizes[comps], ct[comps] - 1))
        return cls.from_columns([dims[i + 1] for i in range(n_players)], columns, n_rounds)

    @classmethod
    def from_columns(cls, dims, columns, rounds):
        """A profile of ``rounds`` rounds from one column set per player:
        ``(weights, matrix, sizes, comp_rounds)`` hold the atom weights (N,)
        and 0/1 atom rows (N, dims[p]) of all the player's components in
        (round, component) order, each component's atom count (positive,
        summing to N) and each component's 0-based round (nondecreasing,
        every round present). The columns are kept as they are; only those
        shapes and counts are checked."""
        columns = [tuple(map(np.asarray, cols)) for cols in columns]
        if len(columns) != len(dims):
            raise ValueError(f"need {len(dims)} column sets, got {len(columns)}")
        for p, (d, (weights, matrix, sizes, comp_rounds)) in enumerate(zip(dims, columns)):
            first = np.searchsorted(comp_rounds, np.arange(rounds + 1))
            if not (weights.shape == (len(matrix),) and matrix.shape[1:] == (d,)
                    and sizes.shape == comp_rounds.shape == (len(comp_rounds),)
                    and (sizes >= 1).all() and sizes.sum() == len(weights)
                    and (np.diff(comp_rounds) >= 0).all() and first[0] == 0
                    and (np.diff(first) >= 1).all() and first[-1] == len(comp_rounds)):
                raise ValueError(
                    f"player {p + 1}: the columns are not {rounds} rounds of "
                    f"components of strategy length {d}"
                )
        profile = cls(len(dims), dims=dims)
        profile.columns = columns
        profile._lists = [None] * len(dims)
        profile.rounds = rounds
        return profile

    def __repr__(self):
        return f"CorrelatedProfile(players={self.n_players}, rounds={self.rounds})"


def uniform_mean(components):
    """The uniform average of the components' means, added in order."""
    total = components[0].mean().copy()
    for c in components[1:]:
        total += c.mean()
    return total / len(components)


def _length(component):
    """A component's strategy length, read without computing a mean where
    the component has an atom matrix."""
    if isinstance(component, SupportMix):
        return component.matrix.shape[1]
    return len(component.mean())


def _bit_strings(matrix):
    """One bytes string of '0'/'1' characters per row of a 0/1 matrix."""
    if not matrix.shape[1]:
        return np.zeros(len(matrix), dtype="S1")
    codes = np.rint(matrix).astype(np.uint8) + 48
    return codes.view(f"S{matrix.shape[1]}")[:, 0]


def _check_rounds(n_rounds, n_players, ct, cp, alpha, starts, sizes, first_line):
    """Raise the error the round-by-round scan meets first: a player
    without atoms in a round, or a component whose weights do not sum to 1
    within 1e-9.

    Components come in (player, round, ell) order, given by their round
    ``ct``, player ``cp``, first row ``starts`` into ``alpha``, atom count
    and first line. A running sum of n nonnegative weights is within
    n * 2**-53 of the exact sum, so only the components whose running sum is
    that close to the bound or past it are summed again with math.fsum.
    """
    pair = np.ones(len(ct), dtype=bool)
    pair[1:] = (cp[1:] != cp[:-1]) | (ct[1:] != ct[:-1])
    lex = np.lexsort((cp[pair], ct[pair]))
    pt, pp = ct[pair][lex], cp[pair][lex]
    # in (round, player) order the k-th pair is (k // P + 1, k % P + 1) up
    # to the first missing one
    k = np.arange(len(pt))
    off = ((pt != k // n_players + 1) | (pp != k % n_players + 1)).nonzero()[0]
    g = int(off[0]) if len(off) else len(pt)
    gap = divmod(g, n_players) if g < n_rounds * n_players else None
    sums = np.add.reduceat(alpha, starts)
    slack = sizes * 2.0**-52 * np.maximum(sums, 1.0)
    doubt = (np.abs(sums - 1.0) > 1e-9 - slack).nonzero()[0]
    for c in doubt[np.lexsort((doubt, cp[doubt], ct[doubt]))].tolist():
        if gap is not None and (int(ct[c]) - 1, int(cp[c]) - 1) > gap:
            break
        total = math.fsum(alpha[starts[c]:starts[c] + sizes[c]].tolist())
        if abs(total - 1.0) > 1e-9:
            raise ParseError(f"line {first_line[c]}: component weights sum to {total}, expected 1")
    if gap is not None:
        raise ParseError(f"round {gap[0] + 1}: no atoms for player {gap[1] + 1}")


def _read_block(lines, lineno, dims):
    """Parse and check a block of CSV rows, the first on line ``lineno``.

    Returns the columns t, player, ell and j (int64, or Python ints past
    int64), alpha, each row's bit count and line number, and the rows' bits
    as one uint8 buffer. Raises the ParseError of the block's first bad row.
    ``dims`` maps each player seen so far to its strategy length.
    """
    lines = list(map(str.strip, lines))
    numbers = np.arange(lineno, lineno + len(lines))
    if not all(lines):
        keep = [k for k, ln in enumerate(lines) if ln]
        lines, numbers = [lines[k] for k in keep], numbers[keep]
    # rows from `stop` on are not read; row `stop` raises `late` unless an
    # earlier row has an error
    counts = np.fromiter(map(str.count, lines, repeat(",")), np.intp, len(lines)) + 1
    stop, late = len(lines), None
    if (counts != 6).any():
        stop = int(np.argmax(counts != 6))
        late = f"expected 6 fields, got {counts[stop]}"
    fields = ",".join(lines[:stop]).split(",") if stop else []
    try:
        t, player, ell, j, alpha = _columns(fields)
    except ValueError:
        for k in range(stop):  # the first row int() or float() rejects
            try:
                _columns(fields[6 * k:6 * k + 6])
            except ValueError as exc:
                stop, late = k, str(exc)
                break
        fields = fields[:6 * stop]
        t, player, ell, j, alpha = _columns(fields)
    bits = fields[5::6]
    lens = np.fromiter(map(len, bits), np.intp, stop)
    joined = "".join(bits)
    chars = (np.frombuffer(joined.encode("ascii"), np.uint8) if joined.isascii()
             else np.frombuffer(joined.encode("utf-32-le"), np.uint32))
    nonbit = np.zeros(len(chars) + 1, dtype=np.intp)
    np.cumsum((chars != 48) & (chars != 49), out=nonbit[1:])
    end = np.cumsum(lens)
    bad_bits = (lens == 0) | (nonbit[end] > nonbit[end - lens])
    seen, first, inverse = np.unique(player, return_index=True, return_inverse=True)
    want = np.array([dims.setdefault(p, int(lens[f]))
                     for p, f in zip(seen.tolist(), first.tolist())], dtype=np.intp)
    small = (t < 1) | (player < 1) | (ell < 1) | (j < 1)
    bad = small | ~np.isfinite(alpha) | (alpha < 0) | bad_bits | (lens != want[inverse])
    if bad.any():
        k = int(np.argmax(bad))
        a = float(alpha[k])
        if small[k]:
            message = "indices are 1-based"
        elif not math.isfinite(a):
            message = f"atom weight {a} is not finite"
        elif a < 0:
            message = f"negative atom weight {a}"
        elif bad_bits[k]:
            message = f"pure-strategy bits {bits[k]!r} are not 0s and 1s"
        else:
            message = "inconsistent strategy length"
        raise ParseError(f"line {numbers[k]}: {message}")
    if late is not None:
        raise ParseError(f"line {numbers[stop]}: {late}")
    return t, player, ell, j, alpha, lens, numbers[:stop], chars


def _columns(fields):
    """t, player, ell, j and alpha from a flat list of six fields per row,
    each column parsed by int() or float() as one row would be."""
    n = len(fields) // 6
    return (*(_ints(fields[k::6], n) for k in range(4)),
            np.fromiter(map(float, fields[4::6]), float, n))


def _ints(strings, n):
    """int() of each string, as int64 unless a value does not fit."""
    try:
        return np.fromiter(map(int, strings), np.int64, n)
    except OverflowError:
        return np.array(list(map(int, strings)), dtype=object)
