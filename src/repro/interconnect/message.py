"""Messages that travel on the inter-cluster network.

Every inter-cluster communication of the paper's Section 4 is represented
as a :class:`Transfer` of one of the :class:`TransferKind` flavours.  The
bit widths follow Section 3/4: a full operand is 64 bits of data plus an
8-bit register tag (72 bits); the L-Wire plane is 18 bits wide (8-bit tag +
10-bit payload); a partial (least-significant) address slice is 18 bits
(6-bit LSQ tag + 8 cache-index bits + 4 TLB-index bits).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

#: Data payload of a register value (bits).
OPERAND_DATA_BITS = 64
#: Register tag accompanying every operand (bits).
TAG_BITS = 8
#: Full operand transfer width (bits).
OPERAND_BITS = OPERAND_DATA_BITS + TAG_BITS
#: Width of the L-Wire plane per direction (bits).
LWIRE_BITS = 18
#: Narrow payload that fits the L-Wire plane next to a tag (bits).
NARROW_DATA_BITS = LWIRE_BITS - TAG_BITS
#: Largest integer value that counts as "narrow" (10 bits: 0..1023).
NARROW_MAX_VALUE = (1 << NARROW_DATA_BITS) - 1
#: Bits of a partial address slice sent ahead on L-Wires.
PARTIAL_ADDRESS_BITS = LWIRE_BITS
#: Least-significant address bits used for partial disambiguation.
LS_COMPARE_BITS = 8
#: Bits of the remaining (most-significant) address slice.
MS_ADDRESS_BITS = OPERAND_BITS - PARTIAL_ADDRESS_BITS
#: Bits of a branch-mispredict notification (branch ID).
MISPREDICT_BITS = 18


class TransferKind(enum.Enum):
    """Why a message is crossing the network."""

    #: Register value produced in one cluster, consumed in another.
    OPERAND = "operand"
    #: Effective address of a load, cluster -> LSQ/cache.
    LOAD_ADDRESS = "load_address"
    #: Effective address of a store, cluster -> LSQ/cache.
    STORE_ADDRESS = "store_address"
    #: Store data, cluster -> cache.
    STORE_DATA = "store_data"
    #: Load result, cache -> cluster.
    LOAD_DATA = "load_data"
    #: Branch mispredict notification, cluster -> front-end.
    MISPREDICT = "mispredict"

    @property
    def is_address(self) -> bool:
        return self in (TransferKind.LOAD_ADDRESS, TransferKind.STORE_ADDRESS)


#: Default full-message widths per kind (bits).
DEFAULT_BITS = {
    TransferKind.OPERAND: OPERAND_BITS,
    TransferKind.LOAD_ADDRESS: OPERAND_BITS,
    TransferKind.STORE_ADDRESS: OPERAND_BITS,
    TransferKind.STORE_DATA: OPERAND_BITS,
    TransferKind.LOAD_DATA: OPERAND_BITS,
    TransferKind.MISPREDICT: MISPREDICT_BITS,
}

for _kind in TransferKind:
    # Plain-attribute copy for the per-transfer hot path (no enum hash).
    _kind._bits = DEFAULT_BITS[_kind]
del _kind


def is_narrow(value: int) -> bool:
    """True if an integer result fits the paper's narrow encoding (0..1023)."""
    return 0 <= value <= NARROW_MAX_VALUE


@dataclass
class Transfer:
    """A logical communication request handed to the network.

    The network may split it into several wire-plane messages (e.g. the
    partial-address optimization sends 18 bits on L-Wires and the rest on
    B-Wires).  Arrivals dispatch on ``kind`` through the network's
    handler tables: :attr:`~repro.interconnect.network.Network.final_handlers`
    when the *complete* transfer has arrived,
    :attr:`~repro.interconnect.network.Network.partial_handlers` when the
    leading slice arrives -- the hook the accelerated cache pipeline uses.
    """

    kind: TransferKind
    src: str
    dst: str
    bits: int = 0
    seq: int = 0
    ready_at_dispatch: bool = False
    narrow_predicted: bool = False
    narrow_actual: bool = False
    #: The carried value is in the frequent-value table and can be sent
    #: as a small index (extension).
    fv_encodable: bool = False
    payload: object = field(default=None, repr=False)

    # Plain class attributes, not fields: the processor marks the
    # transfers it recycles ``_pooled``; the network counts their
    # segments in flight and returns them to its pool after the last.
    _pooled = False
    _segs_left = 0
    #: Destination cluster index of a recycled operand transfer.
    _target = -1

    def __post_init__(self) -> None:
        if self.bits <= 0:
            self.bits = DEFAULT_BITS[self.kind]
        if self.bits <= 0:
            raise ValueError("transfer must carry at least one bit")


@dataclass
class Segment:
    """One wire-plane message of a (possibly split) transfer."""

    transfer: Transfer
    bits: int
    is_leading_slice: bool = False
    is_final_slice: bool = True
