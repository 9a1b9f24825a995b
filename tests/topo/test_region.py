"""A fleet region keeps bounded books: counters, not packet history.

Fleet routers run at the ``metrics`` tier, so their access and
interface logs stay empty however many packets flow — memory grows
with live state, not with history.
"""

from repro.sim import Simulator
from repro.topo import make_spec
from repro.topo.region import RegionWorld
from repro.topo.traffic import plan_traffic


def log_records(world):
    return sum(
        len(router.access_log.records) + len(router.interface_log.records)
        for router in world.routers.values()
    )


def test_static_fleet_books_do_not_grow_with_traffic():
    spec = make_spec("grid", 16)
    sim = Simulator()
    world = RegionWorld(spec, 0, sim)
    assert {r.stack.tier for r in world.routers.values()} == {"metrics"}
    world.schedule_traffic(plan_traffic(spec, 4, 5))
    sim.run_until_idle()
    delivered, records = len(world.deliveries), log_records(world)
    assert delivered == 20

    extra = 200
    src, dst = spec.nodes[0], spec.nodes[-1]
    for ident in range(extra):
        world.routers[src].send_data(
            dst, payload=b"", ident=ident, ttl=len(spec.nodes) + 1
        )
    sim.run_until_idle()
    assert len(world.deliveries) == delivered + extra
    assert log_records(world) == records
