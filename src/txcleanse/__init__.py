"""Transaction-database cleansing and CLOPE-style clustering.

Workflow: ingest a transaction file (generic, query-log, or keyword
format), fit a lognormal or exponential distribution to the item-frequency
histogram, drop items outside the mu +/- s*sigma retention band, prune
emptied transactions, then cluster by iterative profit maximization.
"""

from .cleanse import (
    Band,
    CleansingReport,
    FrequencyHistogram,
    ManualBand,
    cleanse,
    fit_distribution,
    fit_exponential,
    fit_lognormal,
    item_frequencies,
)
from .clope import (
    ClusterSummary,
    Clustering,
    brute_force_best,
    clope_cluster,
    delta_add,
    profit,
    recompute_profit,
)
from .core import (
    DatabaseBuilder,
    ItemId,
    ParseError,
    Transaction,
    TransactionDatabase,
    database_from_items,
    normalize_item,
)
from .ingest import (
    QueryLogRecord,
    iter_query_log,
    parse_keyword_registration,
    parse_transactions,
    serialize_transactions,
    sessionize,
    truncate,
    write_transactions,
)
from .similarity import jaccard, jaccard_parts, threshold_components
from .synth import SyntheticSpec, generate_synthetic

__version__ = "0.1.0"

__all__ = [
    "Band",
    "CleansingReport",
    "ClusterSummary",
    "Clustering",
    "DatabaseBuilder",
    "FrequencyHistogram",
    "ItemId",
    "ManualBand",
    "ParseError",
    "QueryLogRecord",
    "SyntheticSpec",
    "Transaction",
    "TransactionDatabase",
    "brute_force_best",
    "cleanse",
    "clope_cluster",
    "database_from_items",
    "delta_add",
    "fit_distribution",
    "fit_exponential",
    "fit_lognormal",
    "generate_synthetic",
    "item_frequencies",
    "iter_query_log",
    "jaccard",
    "jaccard_parts",
    "normalize_item",
    "parse_keyword_registration",
    "parse_transactions",
    "profit",
    "recompute_profit",
    "serialize_transactions",
    "sessionize",
    "threshold_components",
    "truncate",
    "write_transactions",
]
