"""Fractional classification of documents into a two-level category scheme,
by journal membership and by the profile of citing documents, with tools to
compare the two: flow matrices, citation indicators, community detection,
force-directed layout, and a seeded synthetic corpus generator.
"""

import types

from .assignments import (
    CSR,
    AssignmentSet,
    SYSTEM_ASJC,
    SYSTEM_U1,
    collapse_to_areas,
    iter_assignments,
    load_assignments_npz,
    read_assignments,
    save_assignments_npz,
    write_assignments,
)
from .asjc import classify_asjc
from .citer import ThresholdPolicy, apply_threshold, classify_u1f08_all
from .corpus import (
    Area,
    Category,
    Corpus,
    Document,
    Journal,
    ParseError,
    Scheme,
    ValidationError,
    build_citation_index,
    corpus_summary,
    load_corpus,
    load_corpus_npz,
    load_scheme,
    low_reference_share,
    save_corpus_npz,
    write_corpus,
    write_scheme,
)
from .flow import (
    ClassFlowStats,
    FlowAccumulator,
    FlowMatrix,
    SummaryStats,
    class_flow_stats,
    flow_matrix,
    summary_stats,
    top_links,
)
from .indicators import (
    BaselineTable,
    WeightColumns,
    category_baselines,
    excellence_flags,
    excellence_overlap,
    excellence_thresholds,
    ni_abs_diff_series,
    ni_std_by_area,
    ni_table,
)
from .netgraph import (
    FlowGraph,
    Layout,
    LayoutParams,
    Partition,
    build_flow_graph,
    detect_communities,
    export_graph,
    linlog_layout,
    load_graph,
    modularity,
)
from .syngen import SynParams, generate_corpus, oracle_classify, oracle_flow

__version__ = "0.1.0"

# every name imported above, and nothing else
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, types.ModuleType))
