"""Correlated strategy profiles: uniform-over-rounds mixtures of per-player
product distributions, with bit-exact CSV round-tripping.

The sampling semantics are: draw a round uniformly; then each player
independently draws one of its components uniformly and an atom from it.
Components are either explicit mixtures (SupportMix: a weight array and a
matrix of 0/1 atom rows, uint8) or implicit behavioral descriptors.

A profile keeps them in one of two forms. ``CorrelatedProfile.from_columns``,
which ``from_csv`` and ``nfg.run_ce`` both use, keeps each player's four
columns as they are: the atom weights and 0/1 atom rows of all its
components in (round, component) order, each component's atom count and
each component's round. ``add_round`` keeps a per-player list of component
objects for each round, since a behavioral descriptor has no columns short
of expanding its support. Means are computed when first read: a column
profile's round means in one pass per player, and each of its ``SupportMix``
views, cut from the columns once per player when ``components`` is first
read, from its own atoms; the columns are read-only, and each view checks
its own rows, as every ``SupportMix`` does.

Export gathers every component's rows into columns
(``maps.support_blocks``), behavioral descriptors through their explicit
supports, a block of them at a time in one support walk, and writes them
ROW_BLOCK rows at a time as an array of code units: the index digits,
commas and bits by array arithmetic, the alphas by one "%.17g" pass.
Import reads export's text a block at a time, decoding the indices from
their digits and only the alphas by ``float()``; it declines any other
text, which is read one row at a time.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParseError
from .maps import RoundMixtures, SupportMix, segment_means, support_blocks, zero_one

HEADER = "t,player,ell,j,alpha,pure-strategy-bits"
ROW_BLOCK = 1024  # CSV rows parsed or written at a time; bounds the transient arrays
SCAN_BYTES = 1 << 16  # code units an import scans for newlines at a time
POW10 = 10 ** np.arange(19, dtype=np.int64)  # 1, 10, ..., 10**18
BLANK = 32  # the code unit export pads its fixed-width rows with


class CorrelatedProfile:
    """``columns`` is the per-player ``(weights, matrix, sizes,
    comp_rounds)`` of a profile built by ``from_columns``, read-only, else None."""

    def __init__(self, n_players, dims=None):
        self.n_players = int(n_players)
        self.rounds = 0
        self.dims = list(dims) if dims is not None else None
        self.columns = None
        self._lists = [[] for _ in range(self.n_players)]  # [player][t] -> components
        self._means_of = [None] * self.n_players  # [player] -> (component, round) means

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
        dims = self.dims if self.dims is not None else [len(c[0].mean()) for c in row]
        for i, comps in enumerate(row):
            for comp in comps:
                if len(comp.mean()) != dims[i]:
                    raise ValueError(
                        f"player {i + 1}: a component of strategy length "
                        f"{len(comp.mean())}, expected {dims[i]}"
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
        its columns into ``SupportMix.from_arrays`` views on the first call."""
        if self._lists[player] is None:
            weights, matrix, sizes, comp_rounds = self.columns[player]
            ends = sizes.cumsum().tolist()
            mixes = [SupportMix.from_arrays(weights[a:b], matrix[a:b])
                     for a, b in zip([0] + ends, ends)]
            cuts = np.searchsorted(comp_rounds, np.arange(self.rounds + 1)).tolist()
            self._lists[player] = [mixes[a:b] for a, b in zip(cuts, cuts[1:])]
        return self._lists[player]

    def round_mean(self, t, player):
        """The uniform mean of round t's components, as ``uniform_means``
        (of a column profile, at an array t, the rows of those means)."""
        if self.columns is None:
            comps = self._lists[player][t]
            return uniform_means(np.array([c.mean() for c in comps]), [len(comps)])[0]
        return self._means(player)[1][t]

    def stacked_means(self, player):
        """T x dim matrix of the player's per-round mean strategies (of a
        column profile, one ``round_mean`` call)."""
        if self.columns is None:
            return np.array([self.round_mean(t, player) for t in range(self.rounds)])
        return self.round_mean(np.arange(self.rounds), player)

    def mixtures(self, player):
        """The player's rounds as one ``RoundMixtures``; a column profile's
        components are read from its columns, with their means."""
        if self.columns is None:
            return RoundMixtures(self._lists[player])
        weights, matrix, sizes, comp_rounds = self.columns[player]
        counts = np.diff(np.searchsorted(comp_rounds, np.arange(self.rounds + 1)))
        return RoundMixtures.from_columns(weights, matrix, sizes, counts, self._means(player)[0])

    def _means(self, player):
        """A column profile's component means and round means
        (``uniform_means``) of the player, computed on the first call."""
        if self._means_of[player] is None:
            weights, matrix, sizes, comp_rounds = self.columns[player]
            means = segment_means(weights, matrix, sizes)
            counts = np.diff(np.searchsorted(comp_rounds, np.arange(self.rounds + 1)))
            rounds = uniform_means(means, counts)
            rounds.flags.writeable = False
            self._means_of[player] = means, rounds
        return self._means_of[player]

    def export_csv(self):
        """One row per pure atom: t,player,ell,j,alpha,pure-strategy-bits.

        Indices are 1-based; alpha values carry 17 significant digits so the
        import reproduces them bit for bit. Each player's rows are gathered
        into columns (``columns``, else ``_gather``), the bits as '0'/'1' codes
        (``matrix + 48``), and a stable sort by round puts the rows in
        (t, player, ell, j) order. Each block of ROW_BLOCK rows is written as
        code units (``_write_block``), its indices read off each row's round
        and component, only its alphas by one "%.17g" pass; the arrays are
        freed before the blocks are joined."""
        if not (self.rounds and self.n_players):
            return HEADER + "\n"
        cols = self.columns or [self._gather(i) for i in range(self.n_players)]
        n = sum(len(c[0]) for c in cols)
        t = np.empty(n, np.int64)  # each row's round, from 1
        alpha = np.empty(n)
        bits = np.full((n, 1 + max(c[1].shape[1] for c in cols)), BLANK, np.uint8)
        firsts, comp_start, ell = [0], [], []  # players' and components' first rows; ells
        for weights, matrix, sizes, comp_rounds in cols:
            rows = slice(firsts[-1], firsts[-1] + len(weights))
            t[rows] = np.repeat(comp_rounds + 1, sizes)
            alpha[rows] = weights
            np.add(matrix, 48, out=bits[rows, :matrix.shape[1]], casting="unsafe")
            bits[rows, matrix.shape[1]] = 10  # the newline
            comp_start.append(sizes.cumsum() - sizes + rows.start)
            ell.append(np.arange(len(sizes)) - np.searchsorted(comp_rounds, comp_rounds) + 1)
            firsts.append(rows.stop)
        del cols
        comp_start, ell = np.concatenate(comp_start), np.concatenate(ell)
        order = np.argsort(t, kind="stable")
        out = [HEADER + "\n"]
        for k in range(0, n, ROW_BLOCK):
            rows = order[k:k + ROW_BLOCK]
            comp = np.searchsorted(comp_start, rows, "right") - 1
            keys = np.stack([t[rows], np.searchsorted(firsts, rows, "right"), ell[comp],
                             rows - comp_start[comp] + 1])
            out.append(_write_block(keys, alpha[rows], bits[rows]))
        del t, alpha, bits, order, keys  # only the text blocks live through the join
        return "".join(out)

    def _gather(self, player):
        """The player's columns, its atom rows uint8, gathered from the
        components of a profile built by ``add_round`` in one
        ``support_blocks`` pass; a descriptor's atoms are those of its
        behavioral support."""
        lists = self._lists[player]
        blocks = support_blocks(comp for comps in lists for comp in comps)
        weights, matrix, sizes = map(np.concatenate, zip(*blocks))
        comp_rounds = np.repeat(np.arange(self.rounds), [len(c) for c in lists])
        return weights, matrix, sizes, comp_rounds

    @classmethod
    def from_csv(cls, text):
        """Read a profile CSV; raise ParseError, naming the line, on a bad one.

        Lines are those of ``text.strip().splitlines()``, each stripped and
        the blank ones skipped; after the header, each is a row of six
        comma-separated fields. Each row needs t, player, ell and j that
        ``int()`` reads as positive, an alpha that ``float()`` reads as finite
        and nonnegative, and a nonempty string of 0s and 1s whose length is
        the same for all of a player's rows; the first bad line is named.
        Export's rows read back bit for bit; other spellings those functions
        accept, such as ``+1``, ``1_0`` or ``.5``, read as they read them.
        Then, round by round and player by player, every player needs atoms
        and each component's alphas must sum to 1 within 1e-9. Last, each
        component's j must count 1, 2, ... in file order.

        ``_read_columns`` reads the text as arrays of code units, declining
        any text that fails a check; ``_read_rows`` reads a declined text one
        row at a time, and only it applies the rules above and names errors.
        """
        return cls.from_columns(*(_read_columns(text) or _read_rows(text)))

    @classmethod
    def from_columns(cls, dims, columns, rounds):
        """A profile of ``rounds`` rounds from one column set per player:
        ``(weights, matrix, sizes, comp_rounds)`` hold the atom weights (N,)
        and 0/1 atom rows (N, dims[p]) of all the player's components in
        (round, component) order, each component's atom count (positive
        integers summing to N) and each component's 0-based round (integers,
        nondecreasing, every round present). The columns are kept as they are, made
        read-only; only those shapes and counts, the 0/1 entries and that every
        weight is finite and nonnegative, as ``from_csv`` reads them, are checked."""
        columns = [tuple(map(np.asarray, cols)) for cols in columns]
        if len(columns) != len(dims):
            raise ValueError(f"need {len(dims)} column sets, got {len(columns)}")
        for p, (d, (weights, matrix, sizes, comp_rounds)) in enumerate(zip(dims, columns)):
            first = np.searchsorted(comp_rounds, np.arange(rounds + 1))
            if not (weights.shape == (len(matrix),) and matrix.shape[1:] == (d,)
                    and sizes.shape == comp_rounds.shape == (len(comp_rounds),)
                    and sizes.dtype.kind == comp_rounds.dtype.kind == "i"
                    and (sizes >= 1).all() and sizes.sum() == len(weights)
                    and (np.diff(comp_rounds) >= 0).all() and first[0] == 0
                    and (np.diff(first) >= 1).all() and first[-1] == len(comp_rounds)
                    and ((weights >= 0) & (weights < math.inf)).all() and zero_one(matrix)):
                raise ValueError(
                    f"player {p + 1}: the columns are not {rounds} rounds of 0/1 "
                    f"components of strategy length {d} with finite nonnegative weights"
                )
        for cols in columns:
            for col in cols:
                col.setflags(write=False)
        profile = cls(len(dims), dims=dims)
        profile.columns = columns
        profile._lists = [None] * len(dims)
        profile.rounds = rounds
        return profile

    def __repr__(self):
        return f"CorrelatedProfile(players={self.n_players}, rounds={self.rounds})"


def uniform_means(means, counts):
    """Each round's played mean: its ``counts[t]`` rows of the component
    means ``means`` (C, d), in (round, component) order, added in order and
    divided by the count. It feeds the opponent's utility. The mixture's own
    mean (``RoundMixtures.mean``), which feeds the baseline, scales each
    component by 1 / count before adding instead; the two round differently,
    and merging them would change bits that an audit must reproduce."""
    counts = np.asarray(counts)
    if len(means) == len(counts):  # one component a round
        return means
    first = counts.cumsum() - counts
    total = means[first]
    for j in range(1, counts.max()):
        more = counts > j  # the rounds of more than j components
        total[more] += means[first[more] + j]
    return total / counts[:, None]


def _write_block(keys, alpha, bits):
    """The text of the rows with indices ``keys`` (rows t, player, ell and j;
    from 1), weights ``alpha`` and ``bits`` (codes and a newline, BLANK after).

    Each row is laid out at fixed width: the indices right-aligned in as many
    columns as the block's longest, each with its comma; the alpha by
    "%-24.17g", whose output is at most 24 characters; the bits. No row of
    a 0/1 profile holds a BLANK, so dropping every BLANK gives the text.
    """
    n, width = len(alpha), len(str(keys.max()))
    scale = POW10[width - 1::-1, None, None]
    text = np.empty((n, 4 * (width + 1) + 25 + bits.shape[1]), np.uint8)
    head = text[:, :4 * (width + 1)].reshape(n, 4, width + 1)
    head[..., :width] = np.where(keys < scale, BLANK, keys // scale % 10 + 48).T
    head[..., width] = 44
    text[:, 4 * (width + 1):-bits.shape[1]] = np.frombuffer(
        ("%-24.17g," * n % tuple(alpha.tolist())).encode(), np.uint8).reshape(n, 25)
    text[:, -bits.shape[1]:] = bits
    return text[text != BLANK].tobytes().decode("ascii")


def _read_rows(text):
    """``_read_columns``' result for any text, read one row at a time by the
    rules of ``CorrelatedProfile.from_csv``; raise the ParseError of the
    first rule the text breaks."""
    lines = [line.strip() for line in text.strip().splitlines()]
    if not lines or lines[0] != HEADER:
        raise ParseError("missing profile header row")
    dims, pairs = {}, {}  # player -> strategy length; (t, player) -> {ell: rows}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != 6:
            raise ParseError(f"line {lineno}: expected 6 fields, got {len(fields)}")
        try:
            t, player, ell, j = map(int, fields[:4])
            alpha = float(fields[4])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
        bits = fields[5]
        if min(t, player, ell, j) < 1:
            raise ParseError(f"line {lineno}: indices are 1-based")
        if not math.isfinite(alpha):
            raise ParseError(f"line {lineno}: atom weight {alpha} is not finite")
        if alpha < 0:
            raise ParseError(f"line {lineno}: negative atom weight {alpha}")
        if not bits or bits.strip("01"):
            raise ParseError(f"line {lineno}: pure-strategy bits {bits!r} are not 0s and 1s")
        if dims.setdefault(player, len(bits)) != len(bits):
            raise ParseError(f"line {lineno}: inconsistent strategy length")
        pairs.setdefault((t, player), {}).setdefault(ell, []).append((lineno, j, alpha, bits))

    n_rounds = max((t for t, _ in pairs), default=0)
    n_players = max((player for _, player in pairs), default=0)
    gathered, wrong = {}, []  # player -> alphas, bits, sizes, rounds; bad j rows
    for t in range(1, n_rounds + 1):
        for player in range(1, n_players + 1):
            if (t, player) not in pairs:
                raise ParseError(f"round {t}: no atoms for player {player}")
            alphas, bits, sizes, rounds = gathered.setdefault(player, ([], [], [], []))
            for _, rows in sorted(pairs[t, player].items()):
                total = math.fsum(row[2] for row in rows)
                if abs(total - 1.0) > 1e-9:
                    raise ParseError(
                        f"line {rows[0][0]}: component weights sum to {total}, expected 1")
                wrong += [(row[0], row[1], k) for k, row in enumerate(rows, 1) if row[1] != k]
                alphas += [row[2] for row in rows]
                bits += [row[3] for row in rows]
                sizes.append(len(rows))
                rounds.append(t - 1)
    if wrong:
        lineno, j, k = min(wrong)
        raise ParseError(f"line {lineno}: j is {j}, expected {k} "
                         "(a component's atoms count 1, 2, ... in file order)")
    dims = [dims[player] for player in gathered]
    columns = [(np.array(alphas, dtype=float),
                np.frombuffer("".join(bits).encode(), np.uint8).reshape(-1, d) - 48,
                np.array(sizes), np.array(rounds))
               for d, (alphas, bits, sizes, rounds) in zip(dims, gathered.values())]
    return dims, columns, n_rounds


def _read_columns(text):
    """``(dims, columns, rounds)`` for ``from_columns`` from the profile CSV
    ``text`` read as arrays of code units, ROW_BLOCK rows at a time; None
    unless every check passes as a boolean, ``_read_block``'s and these:
    the text is ASCII with no blank line and no code unit up to the blank
    but its newlines (a CR-LF reads as a newline, a lone CR declines);
    every round has every player; each player has one strategy length; each
    component's j counts 1, 2, ... in file order and its running weight sum
    is within 1e-9 of 1 by more than its rounding error (n weights:
    n * 2**-52 of the larger of the sum and 1).
    """
    if not text.isascii():
        return None
    if "\r" in text:  # a test for CR scans an LF text ten times faster than replace
        text = text.replace("\r\n", "\n")
    ends = np.concatenate([np.empty(0, np.intp)] + [  # the newlines, a chunk at a time
        np.flatnonzero(np.frombuffer(text[k:k + SCAN_BYTES].encode("ascii"), np.uint8) == 10) + k
        for k in range(0, len(text), SCAN_BYTES)])
    if (np.diff(ends) == 1).any():
        return None
    if not len(ends) or ends[-1] != len(text) - 1:
        ends = np.append(ends, len(text))
    if text[:ends[0]] != HEADER:
        return None
    n = len(ends) - 1
    if not n:
        return [], [], 0
    t, player, ell, j, lens = (np.empty(n, np.int64) for _ in range(5))
    alpha, bits = np.empty(n), []
    for k in range(0, n, ROW_BLOCK):
        block = _read_block(text, ends[k:k + ROW_BLOCK + 1])
        if block is None:
            return None
        rows = slice(k, k + ROW_BLOCK)
        t[rows], player[rows], ell[rows], j[rows], alpha[rows], lens[rows] = block[:6]
        bits.append(block[6])
    del ends, block
    bits = np.concatenate(bits)
    cols = [t, player, ell, j, alpha, lens, np.cumsum(lens) - lens]  # the last: first bit
    order = np.lexsort((ell, t, player))
    del t, player, ell, j, alpha, lens
    for c, col in enumerate(cols):  # one column at a time
        cols[c] = col[order]
    t, player, ell, j, alpha, lens, first_bit = cols
    del cols, col, order
    same_player = player[1:] == player[:-1]
    same_pair = same_player & (t[1:] == t[:-1])
    new = np.ones(len(t), dtype=bool)
    new[1:] = ~same_pair | (ell[1:] != ell[:-1])
    starts = new.nonzero()[0]
    sizes = np.diff(starts, append=len(t))
    sums = np.add.reduceat(alpha, starts)
    position = np.arange(len(j)) - np.repeat(starts, sizes) + 1
    # every (round, player) pair is present when there are rounds x players of them
    n_rounds, n_players = t.max().item(), player[-1].item()
    if (len(same_pair) + 1 - np.count_nonzero(same_pair) != n_rounds * n_players
            or ((lens[1:] != lens[:-1]) & same_player).any()
            or (abs(sums - 1.0) > 1e-9 - sizes * 2.0**-52 * np.maximum(sums, 1.0)).any()
            or (j != position).any()):
        return None
    row_bounds = np.searchsorted(player, np.arange(1, n_players + 2))
    comp_bounds = np.searchsorted(player[starts], np.arange(1, n_players + 2))
    dims = lens[row_bounds[:-1]].tolist()
    columns = []
    for i, d in enumerate(dims):
        rows = slice(row_bounds[i], row_bounds[i + 1])
        comps = slice(comp_bounds[i], comp_bounds[i + 1])
        atoms = np.ndarray((len(bits) - d + 1, d), np.uint8, bits, strides=(1, 1))[first_bit[rows]]
        columns.append((alpha[rows], atoms, sizes[comps], t[starts[comps]] - 1))
    return dims, columns, n_rounds


def _read_block(text, edges):
    """The columns t, player, ell, j, alpha and bit count of the rows of
    ``text`` that end at ``edges[1:]``, one past ``edges[0]``, and their bits
    as one run of uint8 0s and 1s, read as code units from 18 before
    ``edges[0]``; None unless each row has six fields, indices of 1 to 18
    ASCII digits worth at least 1, an alpha ``float()`` reads as finite and
    nonnegative and nonempty 0/1 bits."""
    n, lo = len(edges) - 1, edges[0] - 18
    lines = text[lo:edges[-1]]
    chars = np.frombuffer(lines.encode("ascii"), np.uint8)
    edges = edges - lo
    commas = np.flatnonzero(chars[edges[0] + 1:] == 44) + edges[0] + 1
    if (len(commas) != 5 * n or (commas[::5] < edges[:-1]).any()
            or (commas[4::5] > edges[1:]).any()
            or np.count_nonzero(chars[edges[0] + 1:] <= 32) != n - 1):  # but the newlines
        return None
    # field f of each row runs from one past bounds[f] up to bounds[f + 1]
    bounds = np.empty((7, n), dtype=np.int64)
    bounds[0], bounds[6] = edges[:-1], edges[1:]
    bounds[1:6] = commas.reshape(n, 5).T
    size = np.diff(bounds, axis=0) - 1
    width = size[:4].max()
    if size[:4].min() < 1 or width > 18:
        return None
    # the k-th digit from the right of each index; the 18 code units before
    # the rows keep every position in range
    digit = chars[bounds[1:5] - np.arange(1, width + 1)[:, None, None]] - 48
    digit *= np.arange(width)[:, None, None] < size[:4]
    keys = (digit * POW10[:width, None, None]).sum(axis=0)
    lens = size[5].copy()  # a copy: a view would keep all of size alive
    bits = chars[np.arange(lens.sum()) + np.repeat(bounds[5] + 1 - np.cumsum(lens) + lens, lens)] - 48
    if digit.max() > 9 or keys.min() < 1 or lens.min() < 1 or (bits > 1).any():
        return None  # unsigned: every code unit but '0' and '1' is past 1
    try:
        alpha = np.fromiter(map(float, lines[edges[0] + 1:].split(",")[4::5]), float, n)
    except ValueError:
        return None
    if not ((alpha >= 0) & (alpha < math.inf)).all():
        return None
    return *keys, alpha, lens, bits
