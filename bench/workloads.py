"""The benchmark's four workloads.

Each workload turns a seed into a stream of rounds of inputs, runs one
timed operation per input, and checks every output afterwards against an
independent oracle.  Every operation builds its own fresh
``canonical_table()``, as each ``proxinorm`` CLI invocation does, so no
table cache carries over between operations.  Rounds are whole batches:
a run always ends on a round boundary, so the mix of inputs is the same
in every run of a workload.

Check outcomes:

* ``ok``: the output passed every check;
* ``wrong``: a correctness failure (short or unverifiable chain, wrong
  verify verdict, oracle mismatch, an exception from an operation that
  must succeed);
* ``fault``: on ``verify``, a tampered chain made the verifier raise an
  exception other than ``ProxinormError``.  The document was not
  accepted, so this is a robustness defect, not a wrong verdict.
"""

from __future__ import annotations

import copy
import hashlib
import json
import random
from fractions import Fraction
from typing import Dict, Iterator, List, Tuple

from proxinorm import construction, demo, descent, gateaux, norms
from proxinorm.errors import ProxinormError
from proxinorm.vectors import SparseVec, format_rational, parse_rational

import oracles

OK, WRONG, FAULT = "ok", "wrong", "fault"


class OpError:
    """An exception that escaped a timed operation."""

    def __init__(self, exc: BaseException):
        self.kind = type(exc).__name__
        self.message = str(exc)

    def to_json(self) -> Dict[str, str]:
        return {"error": self.kind, "message": self.message}


def canonical_bytes(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def digest(canonical_outputs: List[object]) -> str:
    return hashlib.sha256(canonical_bytes(canonical_outputs)).hexdigest()


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def _random_vector(rng, size_range, num_cap=8, den_cap=6) -> SparseVec:
    entries = {}
    for i in rng.sample(range(1, 10), rng.randint(*size_range)):
        entries[i] = Fraction(rng.randint(1, num_cap) * rng.choice((1, -1)), rng.randint(1, den_cap))
    return SparseVec(entries)


def _check_vector_shape(x: SparseVec, size_range, num_cap=8, den_cap=6) -> None:
    if not size_range[0] <= len(x) <= size_range[1]:
        raise ValueError(f"vector {x!r} has {len(x)} entries, not {size_range}")
    for i, v in x.items():
        if not (1 <= i <= 9 and abs(v.numerator) <= num_cap and v.denominator <= den_cap):
            raise ValueError(f"vector {x!r}: entry {i} out of shape")


def _codim2_subspace() -> descent.Subspace:
    return descent.Subspace([SparseVec.unit(1), SparseVec.unit(2)])


def _vector_on_1_2(rng, size_range) -> SparseVec:
    """A vector with nonzero entries at indices 1 and 2, so it pairs
    nonzero with e1 and e2 and every table prefix sees it."""
    while True:
        x = _random_vector(rng, size_range)
        if x[1] != 0 and x[2] != 0:
            return x


def _check_on_1_2(x: SparseVec, size_range) -> None:
    _check_vector_shape(x, size_range)
    if x[1] == 0 or x[2] == 0:
        raise ValueError(f"vector {x!r} pairs to zero with e1 or e2")


def descent_start(rng) -> SparseVec:
    """Criterion-6 start: 3-5 entries on indices 1..9, |numerator| <= 8,
    denominator <= 6, nonzero pairing with both e1 and e2."""
    return _vector_on_1_2(rng, (3, 5))


def _verify_fresh(chain_obj) -> List[str]:
    """Re-verify a chain document from its JSON with a fresh table."""
    chain = descent.DescentChain.from_json(json.loads(json.dumps(chain_obj)))
    return descent.verify_chain(construction.canonical_table(), chain)


# -- descent ---------------------------------------------------------------


class Descent:
    """``minimizing_sequence`` on H = ker(e1, e2); one operation is one chain."""

    name = "descent"
    steps = 10
    digest_ops = 2

    def rounds(self, seed: int) -> Iterator[List[SparseVec]]:
        rng = _rng(self.name, seed)
        while True:
            yield [descent_start(rng)]

    def validate(self, x0: SparseVec) -> None:
        _check_on_1_2(x0, (3, 5))

    def run(self, x0: SparseVec):
        table = construction.canonical_table()
        return descent.minimizing_sequence(table, _codim2_subspace(), x0, self.steps)

    def canonical(self, x0: SparseVec, out) -> object:
        return out.to_json()

    def check(self, x0: SparseVec, out) -> Tuple[str, str]:
        if isinstance(out, OpError):
            return WRONG, f"{out.kind}: {out.message}"
        if len(out.certificates) != self.steps:
            return WRONG, f"{len(out.certificates)} of {self.steps} steps certified"
        problems = _verify_fresh(out.to_json())
        if problems:
            return WRONG, f"re-verification failed: {problems[:3]}"
        return OK, ""


# -- verify ----------------------------------------------------------------

ENCLOSURES = ("norm_before", "norm_after", "d_plus", "d_minus")
TAMPER_KINDS = ("enc.lo", "enc.hi", "enc.depth", "h", "x_entry", "v_entry", "x0")


class Doc:
    """One chain document of the verify corpus."""

    def __init__(self, label: str, text: str, genuine: bool, source: int):
        self.label = label
        self.text = text
        self.genuine = genuine
        self.source = source


def _bump(value: str, sign: int, rng) -> str:
    """A nonzero rational change of a rational string."""
    old = parse_rational(value)
    while True:
        new = old + sign * Fraction(1, rng.randint(1, 8))
        if new != 0:
            return format_rational(new)


def tamper(chain_obj: dict, kind: str, sign: int, rng) -> Tuple[dict, str]:
    """A copy of a chain document with one well-typed field changed.

    ``sign`` sets the direction of the change, so a corpus can alternate
    raising and lowering a field.  Returns the document and the changed
    field's path.
    """
    doc = copy.deepcopy(chain_obj)
    certs = doc["certificates"]
    t = rng.randrange(len(certs))
    cert = certs[t]
    if kind in ("enc.lo", "enc.hi", "enc.depth"):
        enc_name = rng.choice(ENCLOSURES)
        enc = cert[enc_name]
        if kind == "enc.depth":
            enc["depth"] = enc["depth"] + sign * rng.randint(1, 8)
            return doc, f"certificates.{t}.{enc_name}.depth"
        key = kind[-2:]
        delta = Fraction(1, 1 << rng.randint(1, 64))
        enc[key] = format_rational(parse_rational(enc[key]) + sign * delta)
        return doc, f"certificates.{t}.{enc_name}.{key}"
    if kind == "h":
        factor = Fraction(1 << rng.randint(1, 3)) ** sign
        cert["h"] = format_rational(parse_rational(cert["h"]) * factor)
        return doc, f"certificates.{t}.h"
    if kind == "x0":
        target, path = doc["x0"], "x0"
    else:
        field = kind[0]
        target, path = cert[field], f"certificates.{t}.{field}"
    key = rng.choice(sorted(target, key=int))
    target[key] = _bump(target[key], sign, rng)
    return doc, f"{path}.{key}"


def _leaves(obj, prefix="") -> Dict[str, object]:
    if isinstance(obj, dict):
        out = {}
        for k, v in obj.items():
            out.update(_leaves(v, f"{prefix}{k}."))
        return out
    if isinstance(obj, list):
        out = {}
        for i, v in enumerate(obj):
            out.update(_leaves(v, f"{prefix}{i}."))
        return out
    return {prefix[:-1]: obj}


class Verify:
    """``DescentChain.from_json`` then ``verify_chain`` on a corpus of
    emitted chains and single-field tampered copies; one operation is one
    chain document, and one round is the whole corpus.

    The genuine chains come from the same fixed starts for every seed.
    Chains from different starts can have certificates at very different
    depths (4 to 37 on the first ten seeds), which changes the cost of
    verifying them several-fold, so a corpus of a few seeded chains would
    make each seed a different workload.  The seed drives the tampers.  Tamper kinds and source chains take turns, and each
    kind alternates raising and lowering its field, so every corpus has
    the same mix; the seed picks the step, enclosure and amount.
    Crashing tampers (a raised ``lo`` or lowered ``hi`` that crosses the
    enclosure's other end) are kept: they are the verifier's robustness
    defect."""

    name = "verify"
    genuine_chains = 4
    chain_steps = 3
    tampers = 200
    digest_ops = genuine_chains + tampers

    def __init__(self):
        self._genuine: List[dict] = []

    def rounds(self, seed: int) -> Iterator[List[Doc]]:
        corpus = self.corpus(seed)
        while True:
            yield corpus

    def corpus(self, seed: int) -> List[Doc]:
        starts = random.Random(f"{self.name}/chains")
        subspace = _codim2_subspace()
        self._genuine = []
        docs = []
        for c in range(self.genuine_chains):
            chain = descent.minimizing_sequence(
                construction.canonical_table(), subspace, descent_start(starts), self.chain_steps
            )
            obj = chain.to_json()
            self._genuine.append(obj)
            docs.append(Doc(f"genuine.{c}", json.dumps(obj), True, c))
        rng = _rng(self.name, seed)
        per_sign = len(TAMPER_KINDS) * self.genuine_chains
        for i in range(self.tampers):
            kind = TAMPER_KINDS[i % len(TAMPER_KINDS)]
            source = (i // len(TAMPER_KINDS)) % self.genuine_chains
            sign = 1 if (i // per_sign) % 2 == 0 else -1
            obj, path = tamper(self._genuine[source], kind, sign, rng)
            docs.append(Doc(f"{kind}:{path}", json.dumps(obj), False, source))
        rng.shuffle(docs)
        return docs

    def validate(self, doc: Doc) -> None:
        obj = json.loads(doc.text)
        if doc.genuine:
            if obj != self._genuine[doc.source]:
                raise ValueError(f"{doc.label}: genuine document altered")
            return
        old, new = _leaves(self._genuine[doc.source]), _leaves(obj)
        if old.keys() != new.keys():
            raise ValueError(f"{doc.label}: tamper changed the document's shape")
        changed = [p for p in old if old[p] != new[p]]
        if len(changed) != 1 or type(old[changed[0]]) is not type(new[changed[0]]):
            raise ValueError(f"{doc.label}: not a well-typed single-field change")

    def run(self, doc: Doc) -> Tuple[str, List[str]]:
        try:
            chain = descent.DescentChain.from_json(json.loads(doc.text))
            problems = descent.verify_chain(construction.canonical_table(), chain)
        except ProxinormError as exc:
            return "rejected", [f"{type(exc).__name__}: {exc}"]
        except Exception as exc:  # classified, not hidden: counted as crashed
            return "crashed", [f"{type(exc).__name__}: {exc}"]
        return ("rejected" if problems else "accepted"), problems

    def canonical(self, doc: Doc, out) -> object:
        return {
            "label": doc.label,
            "doc_sha256": hashlib.sha256(doc.text.encode()).hexdigest(),
            "outcome": out[0],
            "problems": out[1],
        }

    def outcome_counts(self, pairs) -> Dict[str, Dict[str, int]]:
        """Accepted, rejected and crashed counts, for genuine and tampered
        documents, and the crashes by tamper kind."""
        counts: Dict[str, Dict[str, int]] = {"genuine": {}, "tampered": {}, "crashed_by_kind": {}}
        for doc, (outcome, _problems) in pairs:
            group = counts["genuine" if doc.genuine else "tampered"]
            group[outcome] = group.get(outcome, 0) + 1
            if outcome == "crashed":
                kind = doc.label.split(":")[0]
                counts["crashed_by_kind"][kind] = counts["crashed_by_kind"].get(kind, 0) + 1
        return counts

    def check(self, doc: Doc, out) -> Tuple[str, str]:
        outcome = out[0]
        if doc.genuine:
            return (OK, "") if outcome == "accepted" else (WRONG, f"genuine chain {outcome}")
        if outcome == "accepted":
            return WRONG, f"tampered chain accepted ({doc.label})"
        if outcome == "crashed":
            return FAULT, f"{doc.label}: {out[1][0]}"
        return OK, ""


# -- deep_norm -------------------------------------------------------------


def _rational_hex(value: Fraction) -> List[str]:
    # Decimal strings of these sizes exceed Python's int-to-str digit limit.
    return [hex(value.numerator), hex(value.denominator)]


def _enclosure_canonical(enc) -> Dict[str, object]:
    return {"lo": _rational_hex(enc.lo), "hi": _rational_hex(enc.hi), "depth": enc.depth}


class DeepNorm:
    """``norm_enclosure``, ``dplus_norm`` and ``dminus_norm`` of a seeded
    sparse vector and direction at 2^17 bits; one operation is one
    vector's three enclosures.  Both vectors have entries at indices 1
    and 2: the table prefix at this depth only reaches small indices, and
    a direction beyond them would make the derivative series all zeros."""

    name = "deep_norm"
    bits = 1 << 17
    digest_ops = 8

    def rounds(self, seed: int) -> Iterator[List[Tuple[SparseVec, SparseVec]]]:
        rng = _rng(self.name, seed)
        while True:
            yield [(_vector_on_1_2(rng, (3, 5)), _vector_on_1_2(rng, (2, 4)))]

    def validate(self, inp) -> None:
        x, u = inp
        _check_on_1_2(x, (3, 5))
        _check_on_1_2(u, (2, 4))

    def run(self, inp):
        x, u = inp
        table = construction.canonical_table()
        return (
            norms.norm_enclosure(table, x, self.bits),
            gateaux.dplus_norm(table, x, u, self.bits),
            gateaux.dminus_norm(table, x, u, self.bits),
        )

    def canonical(self, inp, out) -> object:
        if isinstance(out, OpError):
            return out.to_json()
        return [_enclosure_canonical(e) for e in out]

    def check(self, inp, out) -> Tuple[str, str]:
        if isinstance(out, OpError):
            return WRONG, f"{out.kind}: {out.message}"
        x, u = inp
        enc, dp, dm = out
        limit = (1, 1 << self.bits)
        for name, e in (("norm", enc), ("d_plus", dp), ("d_minus", dm)):
            width = oracles.add(oracles.ratio(e.hi), oracles.ratio(-e.lo))
            if not oracles.less(width, limit):
                return WRONG, f"{name} enclosure wider than 2^-{self.bits}"
        table = construction.canonical_table()
        norm = oracles.add(oracles.ratio(oracles.sup_norm(x)), oracles.norm_series(table, x, enc.depth))
        if not oracles.equal(oracles.ratio(enc.lo), norm):
            return WRONG, "norm partial sum disagrees with the oracle"
        for name, e, direction, sign in (("d_plus", dp, u, 1), ("d_minus", dm, -u, -1)):
            # the centre (lo + hi) / 2 is the one-sided derivative's partial sum
            centre = oracles.add(
                oracles.ratio(oracles.sup_derivative(x, direction)),
                oracles.derivative_series(table, x, direction, e.depth),
            )
            if not oracles.equal(
                oracles.add(oracles.ratio(e.lo), oracles.ratio(e.hi)), oracles.scale(centre, 2 * sign)
            ):
                return WRONG, f"{name} partial sum disagrees with the oracle"
        return OK, ""


# -- sign_demo -------------------------------------------------------------


class SignDemo:
    """``run_demo(table, n)`` for n = 2..6; one operation is one n, one round
    is every n once, in a seeded order."""

    name = "sign_demo"
    ns = (2, 3, 4, 5, 6)
    digest_ops = len(ns)

    def rounds(self, seed: int) -> Iterator[List[int]]:
        rng = _rng(self.name, seed)
        while True:
            order = list(self.ns)
            rng.shuffle(order)
            yield order

    def validate(self, n: int) -> None:
        if n not in self.ns:
            raise ValueError(f"n = {n} outside {self.ns}")

    def run(self, n: int):
        return demo.run_demo(construction.canonical_table(), n)

    def canonical(self, n: int, out) -> object:
        return out.to_json() if isinstance(out, OpError) else out

    def check(self, n: int, out) -> Tuple[str, str]:
        if isinstance(out, OpError):
            return WRONG, f"{out.kind}: {out.message}"
        rows = oracles.predicted_sign_rows(n)
        det = out["determinant"]
        failures = [
            name
            for name, ok in (
                ("psi_matches_prediction", out["psi_matches_prediction"]),
                ("independent", out["independent"]),
                ("|det| = 2^n", abs(det) == 2**n),
                ("constant_per_block", all(t["constant_per_block"] for t in out["theta"])),
                ("predicted rows", out["predicted_rows"] == rows),
                ("determinant oracle", oracles.rref_determinant(rows) == det),
            )
            if not ok
        ]
        return (WRONG, f"n={n}: " + ", ".join(failures)) if failures else (OK, "")

    def digest_order(self, items):
        """In order of n: outputs do not depend on the seed, which only
        orders the round."""
        return sorted(items, key=lambda item: item[0])


WORKLOADS = {w.name: w for w in (Descent(), Verify(), DeepNorm(), SignDemo())}


def first_outputs_digest(workload, pairs) -> str:
    """Digest of the canonical outputs of the first ``digest_ops`` operations,
    in the order the workload's ``digest_order`` gives, if it has one."""
    items = list(pairs[: workload.digest_ops])
    order = getattr(workload, "digest_order", None)
    if order is not None:
        items = order(items)
    return digest([workload.canonical(inp, out) for inp, out in items])
