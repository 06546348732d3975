"""Learn minimal separating DFAs from labelled word samples via SAT.

The imports below are the public API: __all__ lists every name they bind,
in their order, and __version__.
"""

from types import ModuleType as _Module

from .samples import (
    DONT_CARE,
    NEGATIVE,
    POSITIVE,
    ConflictingLabelsError,
    SampleError,
    SampleSet,
    parse_abbadingo,
    write_abbadingo,
)
from .automata import (
    AutomatonFormatError,
    ThreeValuedDFA,
    build_apta,
    build_ddfa,
    build_min_3dfa_incremental,
    canonical_form,
    dump_automaton,
    parse_automaton,
    run,
)
from .encoding import (
    CnfFormula,
    EncodingError,
    VarMap,
    build_formula,
    decode_model,
    emit_dimacs,
    encode_dfa_shape,
    encode_parity_constraints,
    encode_product,
    encode_symmetry_breaking,
)
from .solver import (
    DEFAULT_SOLVER_COMMAND,
    SolverError,
    SolverTimeoutError,
    SolverVerdict,
    parse_solver_output,
    solve,
)
from .mining import (
    MODES,
    MiningError,
    MiningReport,
    NoSeparatorError,
    SizeAttempt,
    SizeRangeError,
    incompatible_clique,
    mine_min_dfa,
    verify_separating,
)
from .generators import (
    WORD_BUDGET,
    BudgetExceededError,
    ParityConfig,
    gen_parity_samples,
    gen_random_dfa,
    gen_samples_from_dfa,
    parity_stats,
)

__version__ = "0.1.0"

__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _Module)]
__all__.append("__version__")
