"""Order batches: groups of orders delivered by one vehicle together.

A batch corresponds to a node ``pi`` of the order graph in Sec. IV-B of the
paper.  It carries its member orders, the quickest route plan of a *virtual*
vehicle positioned at the plan's first stop (this is how the paper defines
batch cost during clustering), and that plan's cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.orders.order import Order
from repro.orders.route_plan import RoutePlan


@dataclass(frozen=True)
class Batch:
    """An immutable batch of orders with its internal quickest route plan.

    Attributes
    ----------
    orders:
        The member orders, in a deterministic (order-id) order.
    plan:
        Quickest route plan of a virtual vehicle that starts at the plan's
        first pick-up node; its cost is ``Cost(v_i, pi_i)`` in Eq. 6.
    """

    orders: tuple[Order, ...]
    plan: RoutePlan

    def __post_init__(self) -> None:
        if not self.orders:
            raise ValueError("a batch must contain at least one order")

    # ------------------------------------------------------------------ #
    # derived properties
    # ------------------------------------------------------------------ #
    @property
    def size(self) -> int:
        """Number of orders in the batch."""
        return len(self.orders)

    @cached_property
    def items(self) -> int:
        """Total item count (checked against MAXI when merging / assigning).

        Computed once per batch, like :attr:`first_pickup_node`: clustering
        reads it for every candidate merge.  (The cache lives in the instance
        ``__dict__``, which a frozen dataclass still has; equality and hash
        read the fields only.)
        """
        return sum(order.items for order in self.orders)

    @property
    def cost(self) -> float:
        """Internal cost ``Cost(v_i, pi_i)`` of the batch."""
        return self.plan.cost

    @cached_property
    def first_pickup_node(self) -> int:
        """Restaurant node of ``pi[1]``, the first order picked up by the plan.

        This is the node at which the sparsified FoodGraph construction
        (Alg. 2) considers the batch to "start": a vehicle gains an edge to
        the batch when its best-first search reaches this node.
        """
        first = self.plan.first_pickup_order
        if first is not None:
            return first.restaurant_node
        return self.orders[0].restaurant_node

    @property
    def earliest_placed_at(self) -> float:
        """Placement time of the oldest order in the batch."""
        return min(order.placed_at for order in self.orders)

    @property
    def order_ids(self) -> tuple[int, ...]:
        return tuple(order.order_id for order in self.orders)

    def restaurant_nodes(self) -> list[int]:
        """Distinct restaurant nodes touched by the batch, first-seen order."""
        return list(dict.fromkeys(order.restaurant_node for order in self.orders))

    def __len__(self) -> int:
        return len(self.orders)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Batch(orders={list(self.order_ids)}, cost={self.cost:.1f})"


__all__ = ["Batch"]
