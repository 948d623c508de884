"""Seeded synthetic corpora with planted category structure.

Corpora are byte-identical across platforms: all randomness comes from
splitmix64 driven through integer arithmetic, never from the host RNG.
Every journal gets a planted non-misc category; documents cite earlier-year
documents, picking targets with the same planted category with probability
intra_category_citation_prob. When a target pool is empty (or a duplicate
cannot be avoided) the slot falls back to a unique external reference, so
reference-count minimums always hold.
"""

from __future__ import annotations

from dataclasses import dataclass

from .corpus import YEARS, Corpus, Journal, Scheme, Area, Category, ValidationError

MASK64 = (1 << 64) - 1


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
        for name in ("year_min", "year_max"):
            if not 0 <= (v := getattr(self, name)) < YEARS:
                errors.append(f"{name} must be in [0, {YEARS - 1}], got {v}")
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
