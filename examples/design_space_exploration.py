#!/usr/bin/env python
"""Design-space exploration with the analytic Sieve models.

Reproduces the paper's Section VI trade-off studies interactively:

* Type-1 vs Type-2 (compute-buffer sweep) vs Type-3 (SALP sweep),
* performance / energy / area Pareto view (Figure 17's three axes),
* capacity-proportional scaling (Figure 16),
* deployment recommendations (DIMM vs PCIe, Section IV-C).

Run:  python examples/design_space_exploration.py
"""

from repro.baselines import CpuBaselineModel
from repro.dram import DramGeometry
from repro.experiments import paper_benchmarks
from repro.hardware import DEFAULT_AREA_MODEL
from repro.interconnect import DeploymentRequirement, recommend_interface
from repro.sieve import SieveModelConfig, Type1Model, Type2Model, Type3Model


def main() -> None:
    workload = paper_benchmarks()[-1].workload()  # C.ST.BG
    cpu = CpuBaselineModel().run(workload)
    print(f"workload {workload.name}: {workload.num_kmers:.3g} k-mers, "
          f"hit rate {workload.hit_rate:.1%}\n")

    # -- Pareto sweep: performance vs area (Figure 17) ----------------------
    area = DEFAULT_AREA_MODEL
    candidates = [("T1", Type1Model(), area.type1_overhead())]
    for cb in (1, 4, 16, 64, 128):
        candidates.append(
            (f"T2.{cb}CB", Type2Model(compute_buffers_per_bank=cb),
             area.type2_overhead(cb))
        )
    for sa in (1, 8):
        candidates.append(
            (f"T3.{sa}SA", Type3Model(concurrent_subarrays=sa),
             area.type3_overhead())
        )
    print(f"{'design':10s} {'speedup':>9s} {'energy x':>9s} {'area %':>7s} "
          f"{'interface':>14s}")
    for name, model, overhead in candidates:
        res = model.run(workload)
        qps = workload.num_kmers / res.time_s
        req = DeploymentRequirement(
            device_qps=qps,
            power_w=res.breakdown["dynamic_j"] / res.time_s
            + res.breakdown["background_j"] / res.time_s
            + 3.0,
            capacity_gb=32,
        )
        print(f"{name:10s} {cpu.time_s / res.time_s:9.1f} "
              f"{cpu.energy_j / res.energy_j:9.1f} {overhead * 100:7.2f} "
              f"{recommend_interface(req):>14s}")

    # -- Pareto frontier -------------------------------------------------------
    points = []
    for name, model, overhead in candidates:
        res = model.run(workload)
        points.append((name, cpu.time_s / res.time_s, overhead))
    frontier = [
        name
        for name, speedup, area_pct in points
        if not any(
            s2 >= speedup and a2 < area_pct or s2 > speedup and a2 <= area_pct
            for _, s2, a2 in points
        )
    ]
    print(f"\nperformance/area Pareto frontier: {', '.join(frontier)}")

    # -- capacity scaling (Figure 16) ------------------------------------------
    print("\ncapacity-proportional performance (Type-3, 8 SA):")
    for gib in (4, 8, 16, 32):
        geometry = DramGeometry.for_capacity(gib)  # 2 GiB per rank
        model = Type3Model(SieveModelConfig(geometry=geometry), 8)
        res = model.run(workload)
        print(f"  {gib:3d} GiB ({geometry.total_banks:4d} banks): "
              f"{res.time_s:8.3f} s  "
              f"({workload.num_kmers / res.time_s / 1e9:5.2f} G k-mers/s)")

    # -- ETM ablation ------------------------------------------------------------
    print("\nETM ablation (Type-3, 8 SA):")
    for etm in (True, False):
        res = Type3Model(concurrent_subarrays=8, etm_enabled=etm).run(workload)
        label = "with ETM   " if etm else "without ETM"
        print(f"  {label}: {res.time_s:8.3f} s, {res.energy_j:9.2f} J")


if __name__ == "__main__":
    main()
