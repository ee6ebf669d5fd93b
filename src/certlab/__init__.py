"""certlab: a desk-scale laboratory tying sample-bounded learning to
certificate search.

Concepts reveal single bits of an error-correction-encoded first certificate;
learners trade samples against brute-force search time; a perfectly sound
challenge protocol turns any plugged-in learner into a one-sided randomized
SAT decider.  Everything is verified against brute-force oracles at small
scale.
"""

from .bits import lex_rank
from .codes import (
    DEFAULT_CODE_PARAMS,
    REDUCTION_CODE_PARAMS,
    CodeParams,
    decode,
    get_code,
)
from .concepts import (
    CertConcept,
    DecisionTree,
    ExampleLayout,
    build_decision_tree,
    cert_class_vc,
    dt_eval,
    enumerate_class,
    is_shattered,
    parse_tree,
    serialize_tree,
    vc_dimension,
)
from .errors import (
    AdversaryInconsistencyError,
    BudgetError,
    CertlabError,
    ConfigError,
    DataInconsistencyError,
    FormatError,
    ShapeError,
)
from .online import (
    OnlineToPacLearner,
    SingleMistakeLearner,
    SortedListLearner,
    exhaustive_adversary_max_mistakes,
    ldim_oracle,
    run_online,
)
from .paclearn import (
    Distribution,
    LabeledSample,
    draw_sample,
    erm_learner,
    error_of,
    few_sample_learner,
    junta_learner,
    pac_trial_suite,
    sparse_erm,
)
from .reduction import (
    AmTranscript,
    DeciderConfig,
    FixedProofMerlin,
    HonestMerlin,
    am_round,
    rtime_decide,
    sat_decider,
)
from .sat import ThreeSatInstance, brute_force_sat, parse_dimacs, to_dimacs
from .verifiers import (
    FormulaEncoding,
    LexQuery,
    StepCounter,
    ThreeSatVerifier,
    Verifier,
    first_certificate,
    lex_oracle,
    lex_verify,
    nondet_oracle,
    verify,
)

__version__ = "0.1.0"
