"""Brute-force test oracles of the pipeline's rules.

Each oracle recomputes one rule by plain nested loops over per-document
records and dicts: the journal split, the citer-origin profile with its
threshold, the flow coupling of one document, the baselines, NI, the
weighted NI spread per area, the excellence cuts, flags and overlap, the
modularity of a partition, and compare's datasets: the per-level tables,
figure 1's low-reference share, figure 4's exchange percentages and figure
7's NI difference by year.
They import no citeclass module and share no code with it: a corpus and a
scheme are read only through their plain columns and fields, and a
classification goes in and comes out as {doc_id: {code: weight}}. They are
guarded to desk scale and raise ValueError beyond it.
"""

from __future__ import annotations

import math
from collections import namedtuple

ORACLE_MAX_DOCS = 10_000
ORACLE_MAX_CLASSES = 1_000

Doc = namedtuple("Doc", "doc_id journal_id year doc_type references external_citations")


def _documents(corpus) -> list[Doc]:
    """The corpus's documents, in doc_id order, read from its columns: a
    reference is an index into the pool doc_ids + external_ids."""
    if len(corpus.doc_ids) > ORACLE_MAX_DOCS:
        raise ValueError(f"the oracles are limited to {ORACLE_MAX_DOCS} documents")
    pool = list(corpus.doc_ids) + list(corpus.external_ids)
    ptr, ref = corpus.ref_indptr.tolist(), corpus.ref.tolist()
    return [
        Doc(doc_id, corpus.journal_ids[j], year, corpus.doc_types[t],
            tuple(pool[k] for k in ref[ptr[i]:ptr[i + 1]]), ext)
        for i, (doc_id, j, year, t, ext) in enumerate(zip(
            corpus.doc_ids, corpus.journal_index.tolist(), corpus.year.tolist(),
            corpus.type_index.tolist(), corpus.external_citations.tolist()))
    ]


def _area_of(scheme) -> dict[str, str]:
    return {c.code: c.area_code for c in scheme.categories}


def oracle_journal_vector(codes, scheme) -> dict[str, float]:
    """A journal's ASJC-FRAC vector: 1/k per code of its k codes; the share
    of a multidisciplinary area code goes equally to every non-misc
    category, and that of a misc category to the non-misc categories of its
    area; renormalized by a plain sum."""
    multi = {a.code for a in scheme.areas if a.is_multidisciplinary}
    misc_area = {c.code: c.area_code for c in scheme.categories if c.is_misc}
    non_misc = sorted((c.code, c.area_code) for c in scheme.categories if not c.is_misc)
    base = 1.0 / len(codes)
    acc: dict[str, float] = {}
    for code in codes:
        if code in multi:
            targets = [c for c, _ in non_misc]
        elif code in misc_area:
            targets = [c for c, area in non_misc if area == misc_area[code]]
        else:
            acc[code] = acc.get(code, 0.0) + base
            continue
        for t in targets:
            acc[t] = acc.get(t, 0.0) + base / len(targets)
    total = sum(acc.values())
    return {k: acc[k] / total for k in sorted(acc)}


def oracle_classify(corpus, scheme, policy, citer_window: int | None = None) -> dict[str, dict[str, float]]:
    """The U1-F-0.8 vector of every document by nested loops. With
    citer_window set, a citation counts toward a reference's citers only
    when the citer was published at most that many years after the
    reference."""
    docs = _documents(corpus)
    year = {d.doc_id: d.year for d in docs}
    jvec = {jid: oracle_journal_vector(j.asjc_codes, scheme) for jid, j in corpus.journals.items()}
    doc_vec = {d.doc_id: jvec[d.journal_id] for d in docs}
    citers: dict[str, list[str]] = {}
    for d in docs:
        for r in d.references:
            if r in year and (citer_window is None or d.year - year[r] <= citer_window):
                citers.setdefault(r, []).append(d.doc_id)

    vectors: dict[str, dict[str, float]] = {}
    for d in docs:
        if len(d.references) < policy.min_references:
            vectors[d.doc_id] = doc_vec[d.doc_id]
            continue
        profiles = []
        for r in d.references:
            if r not in year:
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
    return vectors


def oracle_flow(
    w_a: dict[str, float], w_b: dict[str, float]
) -> tuple[dict[str, float], dict[tuple[str, str], float]]:
    """Explicit-enumeration recomputation of the proportional coupling of one
    document: its common part and its moves."""
    classes = sorted(set(w_a) | set(w_b))
    if len(classes) > ORACLE_MAX_CLASSES:
        raise ValueError(f"oracle_flow is limited to {ORACLE_MAX_CLASSES} classes")
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


def _oracle_citations(docs: list[Doc], citation_window: int | None) -> dict[str, int]:
    """Citations per document, counted from the reference lists: a citation
    counts when the citer appeared at most citation_window years after the
    cited document; external citations always count."""
    counts = {d.doc_id: d.external_citations for d in docs}
    year = {d.doc_id: d.year for d in docs}
    for d in docs:
        for r in d.references:
            if r in year and (citation_window is None or d.year - year[r] <= citation_window):
                counts[r] += 1
    return counts


def oracle_baselines(
    corpus, vectors: dict[str, dict[str, float]], citation_window: int | None = None
) -> dict[tuple[str, int, str], tuple[float, float]]:
    """(weighted mean citations, total weight) per (doc_type, year, category)
    cell, by plain loops."""
    docs = _documents(corpus)
    cit = _oracle_citations(docs, citation_window)
    terms: dict[tuple[str, int, str], list[tuple[float, float]]] = {}
    for d in docs:
        for code, w in vectors[d.doc_id].items():
            terms.setdefault((d.doc_type, d.year, code), []).append((w * cit[d.doc_id], w))
    out = {}
    for cell in sorted(terms):
        weight = math.fsum(w for _, w in terms[cell])
        out[cell] = (math.fsum(wc for wc, _ in terms[cell]) / weight, weight)
    return out


def oracle_ni(
    corpus, vectors: dict[str, dict[str, float]], citation_window: int | None = None
) -> dict[str, float]:
    """Each document's NI: the sum over its categories of w * cit / mean of
    the (doc_type, year, category) cell, a cell of mean 0 adding 0."""
    docs = _documents(corpus)
    cit = _oracle_citations(docs, citation_window)
    baselines = oracle_baselines(corpus, vectors, citation_window)
    ni = {}
    for d in docs:
        terms = []
        for code, w in vectors[d.doc_id].items():
            mean = baselines[(d.doc_type, d.year, code)][0]
            terms.append(w * cit[d.doc_id] / mean if mean != 0.0 else 0.0)
        ni[d.doc_id] = math.fsum(terms)
    return ni


def _area_weights(vector: dict[str, float], area_of: dict[str, str]) -> dict[str, float]:
    acc: dict[str, float] = {}
    for code, w in vector.items():
        acc[area_of[code]] = acc.get(area_of[code], 0.0) + w
    return acc


def oracle_ni_std(
    corpus, scheme, vectors: dict[str, dict[str, float]], ni: dict[str, float]
) -> dict[str, float]:
    """Figure 8: per area with positive weight, in area order, the population
    standard deviation of document NI, each document weighted by its
    weight in the area."""
    area_of = _area_of(scheme)
    members: dict[str, list[tuple[float, float]]] = {}
    for doc_id in corpus.doc_ids:
        for area, w in _area_weights(vectors[doc_id], area_of).items():
            members.setdefault(area, []).append((w, ni[doc_id]))
    out = {}
    for area in sorted(members):
        total = math.fsum(w for w, _ in members[area])
        if total > 0.0:
            mean = math.fsum(w * x for w, x in members[area]) / total
            out[area] = math.sqrt(math.fsum(w * (x - mean) ** 2 for w, x in members[area]) / total)
    return out


def oracle_excellence(
    corpus,
    scheme,
    vectors: dict[str, dict[str, float]],
    p: float,
    citation_window: int | None = None,
) -> tuple[dict[tuple[str, int, str], int], dict[str, bool]]:
    """Excellence cut per (doc_type, year, area) cell and the flag of every
    document, by plain loops. The cut is the smallest integer t whose share
    of the cell's weight at citations >= t is at most p, both rounded to 12
    decimals; a document is excellent when it reaches the cut of any area it
    has positive weight in."""
    docs = _documents(corpus)
    cit = _oracle_citations(docs, citation_window)
    area_of = _area_of(scheme)
    area_weights: dict[str, dict[str, float]] = {}
    members: dict[tuple[str, int, str], list[tuple[int, float]]] = {}
    for d in docs:
        area_weights[d.doc_id] = _area_weights(vectors[d.doc_id], area_of)
        for area, w in area_weights[d.doc_id].items():
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
        for d in docs
    }
    return cuts, flags


def oracle_overlap(
    scheme, vectors_b: dict[str, dict[str, float]], flags_a: dict[str, bool], flags_b: dict[str, bool]
) -> dict[str, tuple[float, float, float]]:
    """Figures 9 and 10: per area with positive weight under system B, in
    area order, the B-weight of the documents excellent in both systems,
    only in B and only in A, each in percent of the area's B-weight."""
    area_of = _area_of(scheme)
    # per area: the weights of all its documents, then of those in both, only B, only A
    parts: dict[str, tuple[list[float], ...]] = {}
    for doc_id, vector in vectors_b.items():
        a, b = flags_a[doc_id], flags_b[doc_id]
        for area, w in _area_weights(vector, area_of).items():
            every, both, only_b, only_a = parts.setdefault(area, ([], [], [], []))
            every.append(w)
            if a and b:
                both.append(w)
            elif b:
                only_b.append(w)
            elif a:
                only_a.append(w)
    out = {}
    for area in sorted(parts):
        size = math.fsum(parts[area][0])
        if size > 0.0:
            out[area] = tuple(100.0 * math.fsum(ws) / size for ws in parts[area][1:])
    return out


def oracle_modularity(edges, community: dict[str, int]) -> float:
    """Textbook weighted modularity Q of the undirected graph of the (u, v, w)
    edges under a {node: community} partition, self-loops skipped: the sum
    over communities of their share of the edge weight less the square of
    their share of the degree. A graph without edges scores 0."""
    edges = [(u, v, w) for u, v, w in edges if u != v]
    total = math.fsum(w for _, _, w in edges)
    if total <= 0.0:
        return 0.0
    deg = {}
    within = {}
    for u, v, w in edges:
        deg[u] = deg.get(u, 0.0) + w
        deg[v] = deg.get(v, 0.0) + w
        if community[u] == community[v]:
            within[community[u]] = within.get(community[u], 0.0) + w
    q = 0.0
    for c in set(community.values()):
        dc = math.fsum(d for n, d in deg.items() if community[n] == c)
        q += within.get(c, 0.0) / total - (dc / (2.0 * total)) ** 2
    return q


def greedy_reference(nodes, edges) -> tuple[dict[str, int], float]:
    """Greedy modularity merging by plain loops over a dict of dicts: the
    partition {node: community} and its Q. The (u, v, w) edges are taken in
    (u, v) order of the sorted nodes, self-loops skipped; each undirected
    pair's weight is its edges added in that order, and the pairs keep the
    order of their first edge, which is also the order the degree fractions
    are summed in. Each round merges the live pair (i, j), i < j, with the
    largest gain 2*(e_ij - a_i*a_j), the first in (i, j) order on a tie,
    while the gain is positive. Communities are numbered by their first node."""
    codes = sorted(nodes)
    idx = {c: i for i, c in enumerate(codes)}
    sym = {}
    for u, v, w in sorted(edges, key=lambda e: (idx[e[0]], idx[e[1]])):
        i, j = idx[u], idx[v]
        if i != j:
            key = (min(i, j), max(i, j))
            sym[key] = sym.get(key, 0.0) + w
    two_m = 2.0 * math.fsum(sym.values())
    if two_m <= 0.0:
        return {c: i for i, c in enumerate(codes)}, 0.0
    e = {i: {} for i in range(len(codes))}
    a = [0.0] * len(codes)
    for (i, j), w in sym.items():
        e[i][j] = e[j][i] = w / two_m
        a[i] += w / two_m
        a[j] += w / two_m
    members = {i: [i] for i in range(len(codes))}
    q = -math.fsum(ai * ai for ai in a)
    while True:
        best_dq, best = 0.0, None
        for i in sorted(members):
            for j in sorted(k for k in e[i] if k > i):
                dq = 2.0 * (e[i][j] - a[i] * a[j])
                if dq > best_dq:
                    best_dq, best = dq, (i, j)
        if best is None:
            break
        i, j = best
        q += best_dq
        members[i].extend(members.pop(j))
        a[i] += a[j]
        for k, w in e.pop(j).items():
            del e[k][j]
            if k != i:
                e[i][k] = e[i].get(k, 0.0) + w
                e[k][i] = e[k].get(i, 0.0) + w
    community = {}
    for new_id, old_id in enumerate(sorted(members, key=lambda c: min(members[c]))):
        for node in members[old_id]:
            community[codes[node]] = new_id
    return community, q


def oracle_low_reference_share(corpus, min_references: int) -> dict[int, float]:
    """Figure 1: per year, in year order, the percentage of documents with
    fewer than min_references references, external ones included."""
    below: dict[int, list[bool]] = {}
    for d in _documents(corpus):
        below.setdefault(d.year, []).append(len(d.references) < min_references)
    return {year: 100.0 * sum(below[year]) / len(below[year]) for year in sorted(below)}


def oracle_ni_diff_by_year(corpus, ni_a: dict[str, float], ni_b: dict[str, float],
                           drop_last_year: bool = True) -> dict[int, float]:
    """Figure 7: per year, in year order, the unweighted mean of |NI_A - NI_B|
    over the documents of the year; the last year dropped on request."""
    diffs: dict[int, list[float]] = {}
    for d in _documents(corpus):
        diffs.setdefault(d.year, []).append(abs(ni_a[d.doc_id] - ni_b[d.doc_id]))
    years = sorted(diffs)[:-1] if drop_last_year else sorted(diffs)
    return {year: math.fsum(diffs[year]) / len(diffs[year]) for year in years}


def oracle_to_areas(vectors: dict[str, dict[str, float]], scheme) -> dict[str, dict[str, float]]:
    """Each vector's category weights summed per area."""
    area_of = _area_of(scheme)
    return {doc_id: _area_weights(vector, area_of) for doc_id, vector in vectors.items()}


def _summary(name: str, values: list[float]) -> list:
    """A summary row: name, n, mean, population std and CV% (None at mean 0), or Nones without values."""
    if not values:
        return [name, 0, None, None, None]
    mean = math.fsum(values) / len(values)
    std = math.sqrt(math.fsum((v - mean) ** 2 for v in values) / len(values))
    return [name, len(values), mean, std, 100.0 * std / mean if mean != 0.0 else None]


def _single(vectors: dict[str, dict[str, float]]) -> tuple[dict[str, float], dict[str, float]]:
    """Per class held above 1e-9 by some document: the percentage of those
    documents that hold it alone, and its mean weight there."""
    held: dict[str, list[float]] = {}
    alone: dict[str, int] = {}
    for vector in vectors.values():
        support = {code: w for code, w in vector.items() if w > 1e-9}
        for code, w in support.items():
            held.setdefault(code, []).append(w)
            alone[code] = alone.get(code, 0) + (len(support) == 1)
    return ({code: 100.0 * alone[code] / len(ws) for code, ws in held.items()},
            {code: math.fsum(ws) / len(ws) for code, ws in held.items()})


def oracle_level_tables(vectors_a: dict[str, dict[str, float]], vectors_b: dict[str, dict[str, float]],
                        bin_width: float) -> dict[str, list[list]]:
    """Compare's per-level datasets from the vectors of the same documents
    under systems A and B at one level, as rows with None for NA: the common
    and unique weight, the single-assignment shares, the size histogram, and
    the flow and weight summaries; exchange_pct holds each class's incoming
    and outgoing flow in percent of its A-size (figure 4 at area level)."""
    if len(vectors_a) > ORACLE_MAX_DOCS:
        raise ValueError(f"the oracles are limited to {ORACLE_MAX_DOCS} documents")
    size_a: dict[str, list[float]] = {}
    size_b: dict[str, list[float]] = {}
    common: dict[str, list[float]] = {}
    incoming: dict[str, list[float]] = {}
    outgoing: dict[str, list[float]] = {}
    for doc_id, w_a in vectors_a.items():
        w_b = vectors_b[doc_id]
        doc_common, moves = oracle_flow(w_a, w_b)
        for total, part in ((size_a, w_a), (size_b, w_b), (common, doc_common)):
            for code, w in part.items():
                total.setdefault(code, []).append(w)
        for (i, j), w in moves.items():
            outgoing.setdefault(i, []).append(w)
            incoming.setdefault(j, []).append(w)
    classes = sorted(set(size_a) | set(size_b))
    sa, sb, com, inc, out = ({c: math.fsum(d.get(c, [])) for c in classes}
                             for d in (size_a, size_b, common, incoming, outgoing))
    pct_in = {c: 100.0 * inc[c] / sa[c] if sa[c] > 0.0 else None for c in classes}
    pct_out = {c: 100.0 * out[c] / sa[c] if sa[c] > 0.0 else None for c in classes}
    single = [*_single(vectors_a), *_single(vectors_b)]
    bins_a = [int(sa[c] // bin_width) for c in classes]
    bins_b = [int(sb[c] // bin_width) for c in classes]
    return {
        "common_unique": [[c, com[c], sa[c] - com[c], sb[c] - com[c]] for c in classes],
        "single_assignment": [[c, *(col.get(c) for col in single)] for c in classes],
        "size_histogram": [
            [k * bin_width, (k + 1) * bin_width, bins_a.count(k), 100.0 * bins_a.count(k) / len(classes),
             bins_b.count(k), 100.0 * bins_b.count(k) / len(classes)]
            for k in range(max(bins_a + bins_b) + 1)
        ],
        "flow_summary": [
            _summary("size_asjc_frac", list(sa.values())), _summary("size_u1_f08", list(sb.values())),
            _summary("incoming", list(inc.values())), _summary("outgoing", list(out.values())),
            _summary("pct_incoming", [p for p in pct_in.values() if p is not None]),
            _summary("pct_outgoing", [p for p in pct_out.values() if p is not None]),
        ],
        "weight_summary": [
            _summary(name, list(col.values())) for name, col in zip(
                ("pct_single_asjc_frac", "mean_weight_asjc_frac", "pct_single_u1_f08", "mean_weight_u1_f08"),
                single)
        ],
        "exchange_pct": [[c, pct_in[c], pct_out[c]] for c in classes],
    }
