"""Seeded synthetic corpora with planted category structure, plus the
brute-force oracles used by tests.

Corpora are byte-identical across platforms: all randomness comes from
splitmix64 driven through integer arithmetic, never from the host RNG.
Every journal gets a planted non-misc category; documents cite earlier-year
documents, picking targets with the same planted category with probability
intra_category_citation_prob. When a target pool is empty (or a duplicate
cannot be avoided) the slot falls back to a unique external reference, so
reference-count minimums always hold.

oracle_classify, oracle_flow, oracle_baselines and oracle_excellence
reimplement the classification, coupling, baseline and excellence rules as
plain nested loops with no shared code; they exist to cross-check the
production implementations and are guarded to desk scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .assignments import AssignmentSet, SYSTEM_U1
from .citer import ThresholdPolicy
from .corpus import Corpus, Journal, Scheme, Area, Category, ValidationError
from .weights import CategoryVector

MASK64 = (1 << 64) - 1
ORACLE_MAX_DOCS = 10_000
ORACLE_MAX_CLASSES = 1_000


class SplitMix64:
    """splitmix64 sequence generator (Steele, Lea, Flood's constants).

    uniform() maps the top 53 bits onto [0, 1); randint(n) uses the
    multiply-shift bound trick via exact integer arithmetic.
    """

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def uniform(self) -> float:
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def randint(self, n: int) -> int:
        """Integer in [0, n)."""
        if n <= 0:
            raise ValidationError([f"randint needs n >= 1, got {n}"])
        return (self.next_u64() * n) >> 64


@dataclass(frozen=True, slots=True)
class SynParams:
    n_docs: int = 1000
    n_journals: int = 50
    seed: int = 42
    n_areas: int = 4
    cats_per_area: int = 5
    include_misc: bool = True
    multi_journal_share: float = 0.05
    misc_journal_share: float = 0.05
    journal_codes_max: int = 3
    year_min: int = 2012
    year_max: int = 2023
    refs_min: int = 3
    refs_max: int = 10
    intra_category_citation_prob: float = 0.7
    external_ref_prob: float = 0.05
    external_citation_max: int = 5
    review_share: float = 0.2

    def __post_init__(self):
        errors = []
        if self.n_docs < 1:
            errors.append("n_docs must be >= 1")
        if self.n_journals < 1:
            errors.append("n_journals must be >= 1")
        if not (1 <= self.n_areas <= 99):
            errors.append("n_areas must be in [1, 99]")
        if not (1 <= self.cats_per_area <= 99):
            errors.append("cats_per_area must be in [1, 99]")
        if self.journal_codes_max < 1:
            errors.append("journal_codes_max must be >= 1")
        if self.year_min > self.year_max:
            errors.append("year_min must be <= year_max")
        if not (0 <= self.refs_min <= self.refs_max):
            errors.append("need 0 <= refs_min <= refs_max")
        for name in ("multi_journal_share", "misc_journal_share",
                     "intra_category_citation_prob", "external_ref_prob", "review_share"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                errors.append(f"{name} must be in [0, 1], got {v}")
        if self.misc_journal_share > 0.0 and not self.include_misc:
            errors.append("misc_journal_share > 0 requires include_misc")
        if self.external_citation_max < 0:
            errors.append("external_citation_max must be >= 0")
        if errors:
            raise ValidationError(errors)


def build_scheme(params: SynParams) -> Scheme:
    areas = [Area(f"A{i:02d}", f"Area {i:02d}") for i in range(1, params.n_areas + 1)]
    categories = []
    for a in areas:
        for j in range(1, params.cats_per_area + 1):
            categories.append(Category(f"{a.code}C{j:02d}", f"Category {a.code}.{j:02d}", a.code))
        if params.include_misc:
            categories.append(Category(f"{a.code}C00", f"Area {a.code} miscellaneous", a.code, is_misc=True))
    if params.multi_journal_share > 0.0:
        areas.append(Area("MULTI", "Multidisciplinary", is_multidisciplinary=True))
    return Scheme(categories, areas)


def _gen_journals(
    rng: SplitMix64, scheme: Scheme, params: SynParams
) -> tuple[list[Journal], dict[str, str]]:
    non_misc = list(scheme.non_misc_codes)
    journals: list[Journal] = []
    planted: dict[str, str] = {}
    for k in range(params.n_journals):
        jid = f"J{k:05d}"
        cat = non_misc[rng.randint(len(non_misc))]
        r = rng.uniform()
        if r < params.multi_journal_share and scheme.multi_area is not None:
            codes = [scheme.multi_area.code]
        elif r < params.multi_journal_share + params.misc_journal_share:
            misc = scheme.misc_by_area[scheme.cat_to_area[cat]]
            codes = [cat] if misc is None else [cat, misc]
        else:
            n_codes = 1 + rng.randint(params.journal_codes_max)
            codes = [cat]
            for _ in range(n_codes - 1):
                for _attempt in range(10):
                    cand = non_misc[rng.randint(len(non_misc))]
                    if cand not in codes:
                        codes.append(cand)
                        break
        journals.append(Journal(jid, tuple(sorted(codes))))
        planted[jid] = cat
    return journals, planted


def planted_journal_categories(params: SynParams) -> dict[str, str]:
    """The planted non-misc category of each journal, reproduced from the
    seed (journal generation precedes document generation in the stream)."""
    scheme = build_scheme(params)
    _, planted = _gen_journals(SplitMix64(params.seed), scheme, params)
    return planted


def generate_corpus(params: SynParams) -> tuple[Scheme, Corpus]:
    """Pure function of params: identical corpora for identical params."""
    from .columns import DocumentColumns  # as in corpus: only corpus builders import it

    scheme = build_scheme(params)
    rng = SplitMix64(params.seed)
    journals, planted = _gen_journals(rng, scheme, params)

    n_years = params.year_max - params.year_min + 1
    pool_by_cat: dict[str, list[str]] = {}
    pool_all: list[str] = []
    pending: list[tuple[str, str]] = []  # (doc_id, planted cat) of the current year
    current_year = params.year_min
    documents = DocumentColumns()
    ext_counter = 0

    for i in range(params.n_docs):
        year = params.year_min + (i * n_years) // params.n_docs
        if year != current_year:
            for doc_id, cat in pending:
                pool_by_cat.setdefault(cat, []).append(doc_id)
                pool_all.append(doc_id)
            pending = []
            current_year = year
        jpos = rng.randint(params.n_journals)
        journal = journals[jpos]
        cat = planted[journal.journal_id]
        doc_type = "review" if rng.uniform() < params.review_share else "article"
        n_refs = params.refs_min + rng.randint(params.refs_max - params.refs_min + 1)
        refs: set[str] = set()
        for _ in range(n_refs):
            target: str | None = None
            if rng.uniform() >= params.external_ref_prob:
                pool = pool_by_cat.get(cat, []) if rng.uniform() < params.intra_category_citation_prob else pool_all
                if pool:
                    for _attempt in range(8):
                        cand = pool[rng.randint(len(pool))]
                        if cand not in refs:
                            target = cand
                            break
            if target is None:
                target = f"X{ext_counter:08d}"
                ext_counter += 1
            refs.add(target)
        ext_cit = rng.randint(params.external_citation_max + 1) if params.external_citation_max > 0 else 0
        doc_id = f"D{i:07d}"
        documents.add(doc_id, journal.journal_id, year, doc_type, sorted(refs), ext_cit)
        pending.append((doc_id, cat))

    return scheme, Corpus(scheme, journals, documents, params.year_min, params.year_max)


def _oracle_journal_vector(journal: Journal, scheme: Scheme) -> CategoryVector:
    base = 1.0 / len(journal.asjc_codes)
    acc: dict[str, float] = {}
    for code in journal.asjc_codes:
        if scheme.multi_area is not None and code == scheme.multi_area.code:
            targets = scheme.non_misc_codes
        else:
            cat = scheme.category_by_code[code]
            if cat.is_misc:
                targets = scheme.non_misc_by_area[cat.area_code]
            else:
                acc[code] = acc.get(code, 0.0) + base
                continue
        for t in targets:
            acc[t] = acc.get(t, 0.0) + base / len(targets)
    total = sum(acc.values())
    return {k: acc[k] / total for k in sorted(acc)}


def oracle_classify(
    corpus: Corpus, scheme: Scheme, policy: ThresholdPolicy, citer_window: int | None = None
) -> AssignmentSet:
    """Nested-loop reimplementation of the citer-origin pipeline, used only
    as a test oracle. With citer_window set, a citation counts toward a
    reference's citers only when the citer was published at most that many
    years after the reference. Guarded to small corpora."""
    if len(corpus) > ORACLE_MAX_DOCS:
        raise ValidationError([f"oracle_classify is limited to {ORACLE_MAX_DOCS} documents"])
    jvec = {jid: _oracle_journal_vector(j, scheme) for jid, j in corpus.journals.items()}
    doc_vec = {d.doc_id: jvec[d.journal_id] for d in corpus.documents}
    citers: dict[str, list[str]] = {}
    for d in corpus.documents:
        for r in d.references:
            if r in corpus and (citer_window is None or d.year - corpus.doc(r).year <= citer_window):
                citers.setdefault(r, []).append(d.doc_id)

    vectors: dict[str, CategoryVector] = {}
    for d in corpus.documents:
        if len(d.references) < policy.min_references:
            vectors[d.doc_id] = doc_vec[d.doc_id]
            continue
        profiles = []
        for r in d.references:
            if r not in corpus:
                continue
            others = [c for c in citers.get(r, []) if c != d.doc_id]
            if others:
                acc: dict[str, float] = {}
                for c in others:
                    for code, w in doc_vec[c].items():
                        acc[code] = acc.get(code, 0.0) + w
                profiles.append({code: acc[code] / len(others) for code in acc})
            else:
                profiles.append(dict(doc_vec[r]))
        if not profiles:
            vectors[d.doc_id] = doc_vec[d.doc_id]
            continue
        agg: dict[str, float] = {}
        for p in profiles:
            for code, w in p.items():
                agg[code] = agg.get(code, 0.0) + w
        agg = {code: w / len(profiles) for code, w in agg.items()}
        wmax = max(agg.values())
        # ratios to the peak count to 12 decimals, at the cut and in the cap
        level = {code: round(w / wmax, 12) for code, w in agg.items()}
        kept = {code: w for code, w in agg.items() if level[code] >= round(policy.theta, 12)}
        if len(kept) > policy.max_categories:
            # the stable sort leaves tied codes in code order
            order = sorted(sorted(kept), key=lambda code: -level[code])
            kept = {code: kept[code] for code in order[: policy.max_categories]}
        total = sum(kept.values())
        vectors[d.doc_id] = {code: kept[code] / total for code in sorted(kept)}
    return AssignmentSet.from_rows(SYSTEM_U1, vectors.items())


def oracle_flow(
    w_a: CategoryVector, w_b: CategoryVector
) -> tuple[CategoryVector, dict[tuple[str, str], float]]:
    """Explicit-enumeration recomputation of the proportional coupling of one
    document: its common part and its moves."""
    classes = sorted(set(w_a) | set(w_b))
    if len(classes) > ORACLE_MAX_CLASSES:
        raise ValidationError([f"oracle_flow is limited to {ORACLE_MAX_CLASSES} classes"])
    common: dict[str, float] = {}
    deficits: dict[str, float] = {}
    surpluses: dict[str, float] = {}
    for c in classes:
        a = w_a.get(c, 0.0)
        b = w_b.get(c, 0.0)
        if min(a, b) > 0.0:
            common[c] = min(a, b)
        if a > b:
            deficits[c] = a - b
        elif b > a:
            surpluses[c] = b - a
    total = math.fsum(deficits.values())
    moves: dict[tuple[str, str], float] = {}
    if total > 1e-15:
        for i, d in deficits.items():
            for j, s in surpluses.items():
                moves[(i, j)] = d * s / total
    return common, moves


def _oracle_citations(corpus: Corpus, citation_window: int | None) -> dict[str, int]:
    """Citations per document, counted from the reference lists: a citation
    counts when the citer appeared at most citation_window years after the
    cited document; external citations always count."""
    counts = {d.doc_id: d.external_citations for d in corpus.documents}
    for d in corpus.documents:
        for r in d.references:
            if r in corpus and (citation_window is None
                                or d.year - corpus.doc(r).year <= citation_window):
                counts[r] += 1
    return counts


def oracle_baselines(
    corpus: Corpus, aset: AssignmentSet, citation_window: int | None = None
) -> dict[tuple[str, int, str], tuple[float, float]]:
    """(weighted mean citations, total weight) per (doc_type, year, category)
    cell, by plain loops. Used only as a test oracle."""
    if len(corpus) > ORACLE_MAX_DOCS:
        raise ValidationError([f"oracle_baselines is limited to {ORACLE_MAX_DOCS} documents"])
    cit = _oracle_citations(corpus, citation_window)
    terms: dict[tuple[str, int, str], list[tuple[float, float]]] = {}
    for d in corpus.documents:
        for code, w in aset.get(d.doc_id).items():
            terms.setdefault((d.doc_type, d.year, code), []).append((w * cit[d.doc_id], w))
    out = {}
    for cell in sorted(terms):
        weight = math.fsum(w for _, w in terms[cell])
        out[cell] = (math.fsum(wc for wc, _ in terms[cell]) / weight, weight)
    return out


def oracle_excellence(
    corpus: Corpus,
    scheme: Scheme,
    aset: AssignmentSet,
    p: float,
    citation_window: int | None = None,
) -> tuple[dict[tuple[str, int, str], int], dict[str, bool]]:
    """Excellence cut per (doc_type, year, area) cell and the flag of every
    document, by plain loops. The cut is the smallest integer t whose share
    of the cell's weight at citations >= t is at most p, both rounded to 12
    decimals; a document is excellent when it reaches the cut of any area it
    has positive weight in. Used only as a test oracle."""
    if len(corpus) > ORACLE_MAX_DOCS:
        raise ValidationError([f"oracle_excellence is limited to {ORACLE_MAX_DOCS} documents"])
    cit = _oracle_citations(corpus, citation_window)
    area_weights: dict[str, dict[str, float]] = {}
    members: dict[tuple[str, int, str], list[tuple[int, float]]] = {}
    for d in corpus.documents:
        acc: dict[str, float] = {}
        for code, w in aset.get(d.doc_id).items():
            area = scheme.category_by_code[code].area_code
            acc[area] = acc.get(area, 0.0) + w
        area_weights[d.doc_id] = acc
        for area, w in acc.items():
            members.setdefault((d.doc_type, d.year, area), []).append((cit[d.doc_id], w))
    cuts = {}
    for cell in sorted(members):
        total = math.fsum(w for _, w in members[cell])
        for t in range(max(c for c, _ in members[cell]) + 2):
            share = math.fsum(w for c, w in members[cell] if c >= t) / total
            if round(share, 12) <= round(p, 12):
                cuts[cell] = t
                break
    flags = {
        d.doc_id: any(w > 0.0 and cit[d.doc_id] >= cuts[(d.doc_type, d.year, area)]
                      for area, w in area_weights[d.doc_id].items())
        for d in corpus.documents
    }
    return cuts, flags
