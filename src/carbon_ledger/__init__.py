"""carbon-ledger: deterministic energy and carbon allocation for blockchain networks.

Allocates a network's measured electricity consumption (and optionally its
carbon emissions) to individual holdings and transactions under three
methodologies: holding-based, transaction-based, and a hybrid whose weights
come from the network's own incentive split (fee share of miner revenue on
proof-of-work, marginal transaction share on proof-of-stake). Layer-1
applications, tokens, and layer-2 networks are covered without double
counting. All arithmetic is exact; conservation identities hold with zero
residual.
"""

from .apps import (
    AppDay,
    TokenHolding,
    allocate_app_hybrid,
    allocate_app_transaction,
    allocate_token_holding,
    app_pool,
    unattributed_remainder,
)
from .engine import (
    ActivitySummary,
    MethodWeights,
    PeriodSummary,
    PortfolioAllocation,
    allocate_holding,
    allocate_portfolio,
    allocate_transaction,
    fee_share,
    fill_forward,
    holding_pool,
    method_weights,
    transaction_pool,
)
from .errors import (
    ArgumentMismatch,
    BasisUnavailable,
    CarbonLedgerError,
    DatasetInvalid,
    IngestionError,
    InvalidValue,
    MalformedDay,
    MalformedResponse,
    MissingColumn,
    MissingDay,
    NoTransactions,
    NotAToken,
    RangeUnavailable,
    RowProblem,
    SchemaMismatch,
    ShareOverflow,
    Unreachable,
    ValidationIssue,
)
from .ingestion import (
    AppBundle,
    Dataset,
    L2Bundle,
    join_issues,
    load_apps_json,
    load_l2_json,
    load_network_csv,
    load_portfolio_json,
    serialize_apps,
    serialize_l2,
    serialize_network_csv,
    serialize_portfolio,
)
from .layer2 import Layer2Day, allocate_within_l2, l2_inherited, l2_total_footprint, synthetic_day
from .model import (
    Activity,
    AllocationResult,
    AuditTrail,
    Carbon,
    CoinAmount,
    Consensus,
    ConsensusParams,
    Energy,
    HoldingRecord,
    Method,
    NetworkDay,
    Portfolio,
    Share,
    TransactionRecord,
    carbonize,
    convert_energy,
)
from .remote import RemoteDayClient

__version__ = "0.1.0"

# Every name imported above, but not the submodules those imports bind (``type(engine)`` is the module type).
__all__ = sorted(
    name for name, value in globals().items() if not name.startswith("_") and type(value) is not type(engine)
)
