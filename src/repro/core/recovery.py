"""Watermark recombination from a trace bit-string (paper Section 3.3).

The recognizer's decoding algorithm, exactly as described:

1. **Windowing / decryption.** The trace bit-string ``b_0 b_1 ... b_n``
   is split into every 64-bit window ``B_t = b_t .. b_{t+63}``; each is
   decrypted with the embedding cipher and passed through the inverse
   enumeration. A hot loop repeats the same bits, so each *distinct*
   window is decrypted once and weighed by its occurrence count. Windows decoding outside the statement space are junk
   and are dropped (the cipher makes attacked/unrelated windows look
   uniform, so the out-of-range check rejects almost all of them).

2. **Voting.** For each modulus ``p_i`` a vote is held on the value of
   ``W mod p_i``. If there is a *clear winner* — "the first-place
   vote-getter being strictly greater than twice second-place" — all
   statements contradicting the winner are removed. This prefilter
   "greatly improves the average-case running time [...] while having
   a negligible effect on the probability of success" (we ablate it in
   ``benchmarks/test_ablation_voting.py``).

3. **Consistency graphs.** Over the surviving statements, graph ``G``
   joins *inconsistent* pairs; graph ``H`` joins pairs consistent
   *because their residues agree mod some shared* ``p_i`` (pairs with
   no shared modulus are consistent merely by CRT and appear in
   neither graph). Repeatedly: take the vertex of maximum ``H``-degree
   (presumed true), delete its ``G``-neighbours, until ``G`` is
   edge-free. The survivors are mutually consistent and are combined
   by the Generalized CRT.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from math import gcd
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .bitstring import window_multiset
from .cipher import BlockCipher
from .crt import Congruence, generalized_crt
from .enumeration import Statement, StatementEnumeration


@dataclass
class RecoveryResult:
    """Outcome of a recognition attempt.

    ``value`` is the recovered watermark when ``complete`` is true;
    otherwise ``congruence`` (if any) carries the partial information
    recovered. Diagnostic counters describe how much work was done and
    how the candidate set was whittled down.

    ``confidence`` grades a recovery in ``[0, 1]``: how much of the
    redundancy agreed with the reported value (codec-specific — for
    GCRT it is the covered-moduli fraction, for RS the fraction of
    codeword symbols recovered clean). ``codec`` names the decoding
    scheme that produced the result; both default to the pre-codec
    behaviour so pickled results and positional constructors keep
    working.

    ``windows_inspected`` counts window occurrences; ``distinct_windows``
    counts the distinct windows among them, each decrypted once (0 when
    the producer did not report it).
    """

    complete: bool
    value: Optional[int]
    congruence: Optional[Congruence]
    accepted: List[Statement] = field(default_factory=list)
    windows_inspected: int = 0
    candidates_found: int = 0
    candidates_after_voting: int = 0
    votes: Dict[int, Counter] = field(default_factory=dict)
    clear_winners: Dict[int, int] = field(default_factory=dict)
    confidence: float = 0.0
    codec: str = "gcrt"
    distinct_windows: int = 0

    def __bool__(self) -> bool:
        return self.complete


def decrypt_windows(windows: Counter, cipher: BlockCipher) -> Counter:
    """Decrypt each distinct window once: plaintext -> occurrence count.

    One :meth:`~BlockCipher.decrypt_blocks` call covers every distinct
    window. The cipher permutes 64-bit blocks, so distinct windows stay
    distinct and the first-occurrence order of ``windows`` carries over.
    """
    plaintexts = cipher.decrypt_blocks(list(windows))
    return Counter(dict(zip(plaintexts, windows.values())))


def open_windows(bits: Sequence[int], cipher: BlockCipher) -> Counter:
    """Scan ``bits`` once and decrypt each distinct 64-bit window once.

    Returns plaintext -> occurrence count: its total is the number of
    windows, its length the number of distinct ones.
    """
    return decrypt_windows(window_multiset(bits), cipher)


def decode_candidates(
    plaintexts: Counter, enumeration: StatementEnumeration
) -> Counter:
    """In-range statements of decrypted windows, weighed by occurrence."""
    candidates: Counter = Counter()
    for plain, count in plaintexts.items():
        stmt = enumeration.decode(plain)
        if stmt is not None:
            candidates[stmt] += count
    return candidates


def extract_candidates(
    bits: Sequence[int],
    cipher: BlockCipher,
    enumeration: StatementEnumeration,
    windows: Optional[Counter] = None,
) -> Tuple[Counter, int]:
    """Decrypt every 64-bit window and keep in-range statements.

    Returns a multiset of statements (duplicates feed the vote) and the
    number of windows inspected. Each distinct window is decrypted once
    and counted as often as it occurs, which yields the same multiset,
    in the same order, as decrypting window by window. ``windows`` is
    :func:`window_multiset` of ``bits`` when the caller already has it.
    """
    if windows is None:
        windows = window_multiset(bits)
    candidates = decode_candidates(decrypt_windows(windows, cipher), enumeration)
    return candidates, sum(windows.values())


def hold_votes(
    candidates: Counter,
    moduli: Sequence[int],
    max_value: Optional[int] = None,
) -> Tuple[Dict[int, Counter], Dict[int, int]]:
    """Per-modulus vote on ``W mod p_i``; returns (tallies, clear winners).

    A winner is *clear* when its vote count strictly exceeds twice the
    runner-up's count (a lone candidate wins against a runner-up of 0).

    ``max_value`` disenfranchises statements whose ``x`` cannot come
    from a genuine mark (``x = W mod p_i*p_j <= W < 2^bits``, so any
    larger ``x`` is a junk decode). They stay in the candidate pool —
    partial/diagnostic recoveries still see them — but they cannot
    seat a winner. Without this, a junk window repeated by a hot loop
    (identical trace bits every iteration decrypt to the same junk
    statement) outvotes the genuine pieces and the vote filter then
    deletes the real mark.
    """
    votes: Dict[int, Counter] = {i: Counter() for i in range(len(moduli))}
    for stmt, count in candidates.items():
        if max_value is not None and stmt.x >= max_value:
            continue
        votes[stmt.i][stmt.x % moduli[stmt.i]] += count
        votes[stmt.j][stmt.x % moduli[stmt.j]] += count
    winners: Dict[int, int] = {}
    for i, tally in votes.items():
        ranked = tally.most_common(2)
        if not ranked:
            continue
        first_count = ranked[0][1]
        second_count = ranked[1][1] if len(ranked) > 1 else 0
        if first_count > 2 * second_count:
            winners[i] = ranked[0][0]
    return votes, winners


def apply_vote_filter(
    candidates: Counter, winners: Dict[int, int], moduli: Sequence[int]
) -> Counter:
    """Drop statements contradicting any clear vote winner."""
    filtered: Counter = Counter()
    for stmt, count in candidates.items():
        ok = True
        for idx in (stmt.i, stmt.j):
            if idx in winners and stmt.x % moduli[idx] != winners[idx]:
                ok = False
                break
        if ok:
            filtered[stmt] = count
    return filtered


def _shared_agreement(a: Statement, b: Statement, moduli: Sequence[int]) -> Optional[bool]:
    """Classify a statement pair.

    Returns ``None`` when the pair shares no modulus (consistent by the
    CRT alone — in neither graph); ``True`` when they agree modulo every
    shared modulus (an ``H`` edge); ``False`` otherwise (a ``G`` edge).
    """
    shared = {a.i, a.j} & {b.i, b.j}
    if not shared:
        return None
    for idx in shared:
        if (a.x - b.x) % moduli[idx] != 0:
            return False
    return True


def _resolve_conflicts(
    statements: List[Statement],
    counts: Counter,
    moduli: Sequence[int],
) -> List[Statement]:
    """The greedy G/H elimination loop of Section 3.3, step C.

    Vertices are unique statements. While ``G`` has edges, presume true
    the vertex of maximum ``H``-degree (ties broken by vote weight, then
    deterministically by statement identity) and delete its
    ``G``-neighbours. If every vertex has already been presumed true but
    conflicts remain (possible only under heavy forgery), drop the
    weaker endpoint of a remaining conflict and continue.
    """
    alive: Set[Statement] = set(statements)
    g_adj: Dict[Statement, Set[Statement]] = {s: set() for s in statements}
    h_adj: Dict[Statement, Set[Statement]] = {s: set() for s in statements}
    ordered = sorted(alive, key=lambda s: (s.i, s.j, s.x))
    for idx_a, a in enumerate(ordered):
        for b in ordered[idx_a + 1:]:
            verdict = _shared_agreement(a, b, moduli)
            if verdict is None:
                continue
            if verdict:
                h_adj[a].add(b)
                h_adj[b].add(a)
            else:
                g_adj[a].add(b)
                g_adj[b].add(a)

    def g_has_edges() -> bool:
        return any(g_adj[s] & alive for s in alive)

    def sort_key(s: Statement):
        h_degree = len(h_adj[s] & alive)
        return (-h_degree, -counts[s], s.i, s.j, s.x)

    presumed: Set[Statement] = set()
    while g_has_edges():
        pool = [s for s in alive if s not in presumed]
        if pool:
            v = min(pool, key=sort_key)
            victims = g_adj[v] & alive
            alive -= victims
            presumed.add(v)
        else:
            # All survivors presumed true yet still conflicting: drop the
            # endpoint with smaller support from some remaining conflict.
            u = next(s for s in alive if g_adj[s] & alive)
            w = next(iter(g_adj[u] & alive))
            loser = max((u, w), key=sort_key)
            alive.discard(loser)
            presumed.discard(loser)
    return sorted(alive, key=lambda s: (s.i, s.j, s.x))


def recover(
    bits: Sequence[int],
    cipher: BlockCipher,
    enumeration: StatementEnumeration,
    use_voting: bool = True,
    max_value: Optional[int] = None,
) -> RecoveryResult:
    """Full recognition pipeline: bits -> candidate statements -> W.

    ``use_voting`` toggles the per-modulus vote prefilter (step 2) for
    the ablation study; the graph elimination always runs. ``max_value``
    (``2^watermark_bits`` when the caller knows the mark width) bars
    provably-junk statements from the vote — see :func:`hold_votes`.
    """
    windows = window_multiset(bits)
    candidates, _ = extract_candidates(bits, cipher, enumeration, windows)
    return recover_candidates(
        candidates, windows, enumeration.moduli, use_voting, max_value
    )


def recover_candidates(
    candidates: Counter,
    windows: Counter,
    moduli: Sequence[int],
    use_voting: bool = True,
    max_value: Optional[int] = None,
) -> RecoveryResult:
    """Steps 2 and 3 of :func:`recover` on an extracted candidate multiset.

    ``windows`` is the window multiset the candidates came from, or its
    decryption (the counts are the same); it only feeds the work
    counters of the result.
    """
    found = sum(candidates.values())
    votes: Dict[int, Counter] = {}
    winners: Dict[int, int] = {}
    if use_voting and candidates:
        votes, winners = hold_votes(candidates, moduli, max_value)
        candidates = apply_vote_filter(candidates, winners, moduli)
    after_voting = sum(candidates.values())

    result = RecoveryResult(
        complete=False,
        value=None,
        congruence=None,
        windows_inspected=sum(windows.values()),
        candidates_found=found,
        candidates_after_voting=after_voting,
        votes=votes,
        clear_winners=winners,
        distinct_windows=len(windows),
    )
    if not candidates:
        return result

    accepted = _resolve_conflicts(list(candidates.keys()), candidates, moduli)
    result.accepted = accepted
    if not accepted:
        return result
    congruence = generalized_crt(s.congruence(moduli) for s in accepted)
    result.congruence = congruence
    covered = set()
    for s in accepted:
        covered.add(s.i)
        covered.add(s.j)
    covered_fraction = len(covered) / len(moduli)
    if covered == set(range(len(moduli))):
        result.complete = True
        result.value = congruence.value
        result.confidence = 1.0
    else:
        result.confidence = covered_fraction
    return result


def gcd_consistency_check(statements: Sequence[Statement], moduli: Sequence[int]) -> bool:
    """Pairwise consistency of a statement set (used by tests)."""
    for idx, a in enumerate(statements):
        for b in statements[idx + 1:]:
            ca, cb = a.congruence(moduli), b.congruence(moduli)
            g = gcd(ca.modulus, cb.modulus)
            if (ca.value - cb.value) % g != 0:
                return False
    return True
