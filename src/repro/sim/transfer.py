"""Block-segmented transfer scenarios (the Figure 3 story at file scale).

One harness, two modes:

* **payload mode** — a full pipeline run: random object bytes, per-block
  encode, striped stream through a lossy channel, per-block incremental
  decode, byte-exact reassembly check.  The ground truth.
* **structural mode** — indices only, no payload XOR work: per-block
  positions advance exactly as the servers would, survivors feed a
  payload-less :class:`~repro.transfer.client.TransferClient`.  Orders
  of magnitude faster, for sweeps over many blocks/loss rates.

:func:`compare_schedules` runs both cross-block schedules on the same
geometry, reproducing the paper's interleaving trade-off: proportional
striping fills all blocks in near-lockstep (residual coupon-collector
tail only), while sequential visits make a receiver that lost packets
of block ``b`` wait a whole revolution for ``b`` to come around again.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Dict, List, Optional, Union

import numpy as np

from repro.codes.backend import is_vectorized
from repro.errors import ParameterError
from repro.net.channel import LossyChannel
from repro.net.loss import BernoulliLoss, LossModel
from repro.transfer.blocks import BlockPlan
from repro.transfer.client import TransferClient
from repro.codes.registry import block_seed
from repro.transfer.codec import ObjectCodec
from repro.transfer.schedule import make_schedule
from repro.transfer.server import TransferServer
from repro.utils.rng import spawn_rng

#: rng stream labels (kept distinct from code-graph streams).
_DATA_STREAM = 0xDA7A
_LOSS_STREAM = 0x1055

#: structural-mode chunk size for vectorised loss draws.
_CHUNK = 4096

@dataclass(frozen=True)
class TransferRunResult:
    """Outcome of one simulated block-segmented download."""

    family: str
    schedule: str
    file_size: int
    packet_size: int
    num_blocks: int
    total_k: int
    #: server emissions until the client completed (the wire cost).
    packets_sent: int
    #: survivors the client saw (= sent minus channel losses).
    packets_received: int
    distinct_received: int
    #: True when payloads were simulated and reassembly was byte-exact.
    verified: bool

    @property
    def reception_overhead(self) -> float:
        """epsilon such that (1+epsilon) * total_k packets were received."""
        return self.packets_received / self.total_k - 1.0

    @property
    def send_overhead(self) -> float:
        """Wire-side epsilon: emissions over total_k, loss included."""
        return self.packets_sent / self.total_k - 1.0


def _as_loss_model(loss: Union[float, LossModel]) -> LossModel:
    if isinstance(loss, LossModel):
        return loss
    return BernoulliLoss(float(loss))


def _drive_payload_batched(plan: BlockPlan,
                           codec: ObjectCodec,
                           server: TransferServer,
                           client: TransferClient,
                           channel: LossyChannel,
                           schedule: str,
                           limit: int) -> int:
    """Run the payload pipeline in deficit-bounded chunks.

    Result-identical to feeding ``server.packets(limit)`` through the
    channel one packet at a time: the loss model draws one delivery per
    emission in emission order, every emitted slot advances its block
    source (dropped or not), and chunks are capped at the provable
    lower bound on packets the transfer still needs
    (:attr:`~repro.transfer.client.TransferClient.packet_deficit`) —
    the transfer cannot complete before a chunk's final slot, so
    reception counters at completion match the sequential run exactly.
    """
    slots = make_schedule(schedule, plan.block_ks)
    sources = server.block_sources
    sent = 0
    while not client.is_complete and sent < limit:
        chunk = min(client.packet_deficit, limit - sent, _CHUNK)
        blocks = np.fromiter(islice(slots, chunk), dtype=np.int64,
                             count=chunk)
        mask = channel.delivery_mask(chunk)
        sent += chunk
        for b in np.unique(blocks):
            sel = blocks == b
            # Every emitted slot advances the block's stream position,
            # delivered or not; only survivors reach the client.
            ids, pays = sources[int(b)].payload_batch(int(sel.sum()))
            delivered = mask[sel]
            if delivered.any():
                client.receive_many(int(b), ids[delivered], pays[delivered])
    return sent


def simulate_transfer(file_size: int,
                      packet_size: int = 1024,
                      block_packets: int = 256,
                      family: str = "tornado-b",
                      schedule: str = "interleave",
                      loss: Union[float, LossModel] = 0.0,
                      seed: int = 0,
                      payloads: bool = True,
                      max_factor: float = 200.0) -> TransferRunResult:
    """One download of a ``file_size``-byte object, segmented into blocks.

    ``loss`` is a Bernoulli rate or any :class:`~repro.net.loss.LossModel`;
    ``max_factor`` bounds emissions at ``max_factor * total_k`` so a
    pathological run fails loudly instead of spinning.
    """
    plan = BlockPlan(file_size, packet_size, block_packets)
    codec = ObjectCodec(plan, code=family, seed=seed)
    channel = LossyChannel(_as_loss_model(loss),
                           rng=spawn_rng(seed, _LOSS_STREAM))
    limit = int(max_factor * codec.total_k)
    if payloads:
        data_rng = spawn_rng(seed, _DATA_STREAM)
        data = data_rng.integers(0, 256, size=file_size,
                                 dtype=np.uint8).tobytes()
        server = TransferServer(codec, data, schedule=schedule, seed=seed)
        client = TransferClient(codec)
        if is_vectorized():
            sent = _drive_payload_batched(plan, codec, server, client,
                                          channel, schedule, limit)
        else:
            for packet in channel.transmit(server.packets(limit)):
                if client.receive(packet):
                    break
            sent = channel.sent
        if not client.is_complete:
            raise ParameterError(
                f"transfer did not complete within {limit} emissions; "
                f"raise max_factor or lower the loss rate")
        verified = client.object_data() == data
    else:
        client = TransferClient(codec, payload_size=None)
        slots = make_schedule(schedule, plan.block_ks)
        # Per-block emission positions, advanced exactly as the servers
        # advance them: a carousel walks its permutation cyclically, a
        # rateless stream walks droplet ids upward.
        positions = [0] * plan.num_blocks
        orders: List[Optional[np.ndarray]] = [None] * plan.num_blocks
        if not codec.is_rateless:
            from repro.fountain.carousel import CarouselServer
            orders = [CarouselServer(codec.code_for(spec.block),
                                     seed=block_seed(seed, spec.block)).order
                      for spec in plan.blocks]
        sent = 0
        while not client.is_complete and sent < limit:
            mask = channel.delivery_mask(min(_CHUNK, limit - sent))
            for delivered in mask:
                block = next(slots)
                pos = positions[block]
                positions[block] = pos + 1
                sent += 1
                if not delivered:
                    continue
                order = orders[block]
                index = pos if order is None else int(order[pos % order.size])
                if client.receive_index(block, index):
                    break
        if not client.is_complete:
            raise ParameterError(
                f"transfer did not complete within {limit} emissions; "
                f"raise max_factor or lower the loss rate")
        verified = False
    return TransferRunResult(
        family=family,
        schedule=schedule,
        file_size=plan.file_size,
        packet_size=plan.packet_size,
        num_blocks=plan.num_blocks,
        total_k=codec.total_k,
        packets_sent=sent,
        packets_received=client.total_received,
        distinct_received=client.distinct_received,
        verified=verified,
    )


def compare_schedules(file_size: int,
                      packet_size: int = 1024,
                      block_packets: int = 256,
                      family: str = "tornado-b",
                      loss: Union[float, LossModel] = 0.1,
                      seed: int = 0,
                      payloads: bool = False
                      ) -> Dict[str, TransferRunResult]:
    """Interleaved vs. sequential striping on identical geometry."""
    return {
        name: simulate_transfer(file_size, packet_size, block_packets,
                                family=family, schedule=name, loss=loss,
                                seed=seed, payloads=payloads)
        for name in ("interleave", "sequential")
    }
