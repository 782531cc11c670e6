"""Operator-graph representation of a model (paper Figure 2).

A model is a sequence of **nets**; each net is an ordered list of operators
over named blobs in a workspace, exactly as in the Caffe2 framework the
paper builds on.  Operators execute sequentially within a net -- extra
cores serve request- and batch-level parallelism instead (Section IV-A) --
except for asynchronous RPC operators, which a distributed net issues in
parallel and joins before the feature-interaction layers.

Graph validity (checked by :func:`validate_net`):

* every operator input is either an external input or produced earlier
  (nets are topologically ordered by construction -- no cycles);
* no blob is produced twice;
* shard boundaries cannot form cycles (enforced by the partitioner: sparse
  shards never call back into the main shard).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable


if TYPE_CHECKING:
    from repro.core.operators import Operator


class GraphError(ValueError):
    """Raised when a net or model graph is malformed."""


@dataclass
class Net:
    """An ordered operator list with declared external inputs/outputs."""

    name: str
    operators: list["Operator"] = field(default_factory=list)
    external_inputs: set[str] = field(default_factory=set)
    external_outputs: list[str] = field(default_factory=list)

    def add(self, operator: "Operator") -> "Operator":
        self.operators.append(operator)
        return operator

    def blobs_produced(self) -> set[str]:
        produced: set[str] = set()
        for operator in self.operators:
            produced.update(operator.outputs)
        return produced


def validate_net(net: Net) -> None:
    """Check single-assignment and input availability; raise GraphError."""
    available = set(net.external_inputs)
    produced: set[str] = set()
    for operator in net.operators:
        for blob in operator.inputs:
            if blob not in available:
                raise GraphError(
                    f"net {net.name}: op {operator.name} reads undefined blob {blob!r}"
                )
        for blob in operator.outputs:
            if blob in produced:
                raise GraphError(
                    f"net {net.name}: blob {blob!r} produced twice (op {operator.name})"
                )
            produced.add(blob)
            available.add(blob)
    for blob in net.external_outputs:
        if blob not in available:
            raise GraphError(f"net {net.name}: external output {blob!r} never produced")


@dataclass
class ModelGraph:
    """The ordered nets of one model; later nets may read earlier outputs."""

    name: str
    nets: list[Net] = field(default_factory=list)

    def validate(self) -> None:
        carried: set[str] = set()
        for net in self.nets:
            missing = net.external_inputs - carried
            # External inputs not carried from earlier nets must be fed by
            # the request itself; that is legal, so only net-local checks
            # are strict here.
            validate_net(net)
            carried.update(net.blobs_produced())
            carried.update(net.external_inputs)
            del missing

    def all_operators(self) -> Iterable["Operator"]:
        for net in self.nets:
            yield from net.operators
