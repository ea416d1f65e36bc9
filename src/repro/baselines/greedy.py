"""The greedy consolidation baseline (Section VI-B).

Processes application groups in decreasing server-count order; for each,
prices every target data center — power, labor, WAN, latency penalty and
the *marginal* space cost at the site's current occupancy — and takes
the cheapest.  Greedy sees latency (unlike the manual heuristic) but,
being myopic about volume discounts and packing, lands between manual
and the LP in solution quality.

The DR variant re-walks the groups and picks each secondary site by the
same marginal logic, adding the incremental shared-pool server purchase.
"""

from __future__ import annotations

from ..core.entities import ApplicationGroup, AsIsState, DataCenter
from ..core.plan import TransformationPlan, evaluate_plan
from ..core.wan import inter_site_wan_price, undirected_peer_traffic, wan_cost


class GreedyPlanError(RuntimeError):
    """Greedy painted itself into a corner (no feasible site left)."""


def _placement_cost(
    state: AsIsState,
    group: ApplicationGroup,
    dc: DataCenter,
    occupancy: int,
    wan_model: str,
) -> float:
    """Marginal cost of adding ``group`` to ``dc`` at given occupancy."""
    params = state.params
    power_labor = group.servers * (
        params.server_power_kw * dc.power_cost_per_kw
        + dc.labor_cost_per_admin / params.servers_per_admin
    )
    space = (
        dc.space_cost.total_cost(occupancy + group.servers)
        - dc.space_cost.total_cost(occupancy)
    )
    fixed = dc.fixed_monthly_cost if occupancy == 0 else 0.0
    wan = wan_cost(group, dc, params, model=wan_model)
    latency = 0.0
    if group.total_users > 0:
        mean = group.mean_latency(dc.latency_to_users)
        latency = group.latency_penalty.total_penalty(mean, group.total_users)
    return power_labor + space + fixed + wan + latency


def _peer_split_cost(
    state: AsIsState,
    group: ApplicationGroup,
    dc: DataCenter,
    placement: dict[str, str],
    pair_traffic: dict[frozenset, float],
    sites: dict[str, DataCenter],
) -> float:
    """Inter-group WAN toward already-placed peers (myopic: groups not
    yet placed contribute nothing — greedy cannot see the future)."""
    total = 0.0
    for pair, traffic in pair_traffic.items():
        if group.name not in pair:
            continue
        (other,) = pair - {group.name}
        other_site = placement.get(other)
        if other_site is None or other_site == dc.name:
            continue
        total += traffic * inter_site_wan_price(dc, sites[other_site])
    return total


def run_greedy(
    state: AsIsState,
    enable_dr: bool = False,
    wan_model: str = "metered",
) -> TransformationPlan:
    """Run the greedy baseline; returns a fully evaluated plan."""
    occupancy = {dc.name: 0 for dc in state.target_datacenters}
    remaining = {dc.name: dc.capacity for dc in state.target_datacenters}
    placement: dict[str, str] = {}
    sites = {dc.name: dc for dc in state.target_datacenters}
    pair_traffic = undirected_peer_traffic(state.app_groups)

    order = sorted(state.app_groups, key=lambda g: -g.servers)
    for group in order:
        best: tuple[float, DataCenter] | None = None
        for dc in state.target_datacenters:
            if not state.placeable(group, dc):
                continue
            if remaining[dc.name] < group.servers:
                continue
            cost = _placement_cost(state, group, dc, occupancy[dc.name], wan_model)
            if pair_traffic:
                cost += _peer_split_cost(
                    state, group, dc, placement, pair_traffic, sites
                )
            if best is None or cost < best[0]:
                best = (cost, dc)
        if best is None:
            raise GreedyPlanError(
                f"group {group.name!r} ({group.servers} servers) fits nowhere; "
                "greedy filled the candidate sites badly"
            )
        dc = best[1]
        placement[group.name] = dc.name
        occupancy[dc.name] += group.servers
        remaining[dc.name] -= group.servers

    secondary: dict[str, str] = {}
    if enable_dr:
        secondary = _greedy_secondary(state, placement, occupancy, remaining)

    return evaluate_plan(
        state,
        placement,
        secondary=secondary,
        wan_model=wan_model,
        solver="greedy" + ("+dr" if enable_dr else ""),
    )


def _greedy_secondary(
    state: AsIsState,
    placement: dict[str, str],
    occupancy: dict[str, int],
    remaining: dict[str, int],
) -> dict[str, str]:
    """Pick secondaries one group at a time, pricing the pool growth.

    ``pair_load[(a, b)]`` tracks servers whose primary is *a* backed at
    *b*; the shared pool at *b* is the max over *a*, so the marginal
    purchase of a candidate is how much it raises that max.
    """
    params = state.params
    pair_load: dict[tuple[str, str], int] = {}
    pool: dict[str, int] = {dc.name: 0 for dc in state.target_datacenters}

    order = sorted(state.app_groups, key=lambda g: -g.servers)
    secondary: dict[str, str] = {}
    for group in order:
        primary = placement[group.name]
        best: tuple[float, DataCenter] | None = None
        for dc in state.target_datacenters:
            if dc.name == primary:
                continue
            if not state.placeable(group, dc):
                continue
            new_pair = pair_load.get((primary, dc.name), 0) + group.servers
            delta = max(0, new_pair - pool[dc.name])
            if params.include_backup_in_capacity and delta > remaining[dc.name]:
                continue
            per_server = (
                params.dr_server_cost
                + params.backup_power_fraction
                * params.server_power_kw
                * dc.power_cost_per_kw
                + params.backup_labor_fraction
                * dc.labor_cost_per_admin
                / params.servers_per_admin
            )
            space = (
                dc.space_cost.total_cost(occupancy[dc.name] + pool[dc.name] + delta)
                - dc.space_cost.total_cost(occupancy[dc.name] + pool[dc.name])
            )
            fixed = (
                dc.fixed_monthly_cost
                if delta > 0 and occupancy[dc.name] + pool[dc.name] == 0
                else 0.0
            )
            cost = delta * per_server + space + fixed
            if best is None or cost < best[0]:
                best = (cost, dc)
        if best is None:
            raise GreedyPlanError(
                f"no DR site has room for group {group.name!r}"
            )
        dc = best[1]
        secondary[group.name] = dc.name
        new_pair = pair_load.get((primary, dc.name), 0) + group.servers
        pair_load[(primary, dc.name)] = new_pair
        delta = max(0, new_pair - pool[dc.name])
        if delta:
            pool[dc.name] += delta
            if params.include_backup_in_capacity:
                remaining[dc.name] -= delta
    return secondary
