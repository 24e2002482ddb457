"""procsel: QoS-aware service selection for annotated BPMN 2.0 processes.

Given a business process whose service tasks carry input/output/context
annotations and a registry of candidate services with time-stamped QoS
histories, procsel ranks candidate operations per task through three
filters: context matching, functional matching with an acceptance gate,
and dynamic QoS scoring over the gated pool.
"""

from .bpmn import (
    BusinessProcess,
    TaskRequirement,
    bind_requirements,
    parse_annotation,
    parse_bpmn,
)
from .config import AppConfig, DEFAULT_CONFIG, config_from_dict, load_config
from .errors import (
    AnnotationError,
    BpmnError,
    ConfigError,
    LexiconError,
    ProcselError,
    QosError,
    RegistryError,
    ReportError,
)
from .functional import (
    DEFAULT_SCORE_TABLE,
    FunctionalScore,
    ScoreTable,
    gate_candidates,
    match_context,
    score_functional,
)
from .lexicon import (
    EMPTY_LEXICON,
    SynonymLexicon,
    extract_keywords,
    keyword_sets_match,
    load_lexicon,
    terms_match,
)
from .qos import (
    AttributeSpec,
    DEFAULT_QOS_CONFIG,
    QosConfig,
    QosScores,
    aggregate_change,
    align_snapshots,
    change,
    nfp_score,
    normalize_pool,
    score_pool,
    utility,
)
from .ranking import (
    Candidate,
    SelectionReport,
    TaskSelection,
    explain,
    global_score,
    rank_candidates,
    report_to_dict,
    select_for_process,
    serialize_report,
)
from .registry import (
    Operation,
    Parameter,
    QosSnapshot,
    ServiceCategory,
    ServiceRegistry,
    WebService,
    append_snapshot,
    import_wsdl,
    load_registry,
    normalize_datatype,
    save_registry,
)

__version__ = "0.1.0"
