"""Width-parametric TF-1 keystream generators and an internal-state recovery attack.

The generator side builds keystreams from a four-word state; the attack side
recovers that state from a stream containing a zero output word, in about
16 * 2**(1.5 w) counted operations, and an exhaustive oracle certifies the
result at tiny widths.
"""

from .attack import (
    AttackConfig,
    AttackError,
    AttackReport,
    InsufficientTail,
    NeedMoreKeystream,
    OpCounters,
    ParamsMismatch,
    SurvivorOverflow,
    find_zero_outputs,
    predicted_work,
    recover,
    verify_state,
)
from .generator import (
    GeneratorInstance,
    Keystream,
    State,
    Tf1Params,
    default_params,
    demo_generalized_instance,
    generate,
    generate_from_instance,
    state_from_seed,
    tf1_instance,
)
from .oracle import OracleResult, brute_force_consistent_states, compare_with_report
from .tfcheck import (
    PropertyReport,
    check_tfunction_property,
    check_truncation_consistency,
    zero_frequency,
)
from .word import WordSpec

__version__ = "0.1.0"
