/**
 * @file
 * Hot-path observability probe gating.
 *
 * Probes on per-branch paths (SpecCore fetch/critique, predictor
 * update) follow the pcbp_dassert philosophy (common/logging.hh):
 * the *default* build compiles them in behind a runtime null check —
 * a single predictable untaken branch when observability is off —
 * and a build that defines PCBP_OBS=0 strips them entirely for the
 * cases where even that branch matters (SIMD experiments,
 * kernel-ish loops). The overhead budget is 1%, and its gate is the
 * pair file bench/results/PAIR_obs_engine_long_seed1.md: perfbench
 * engine-long built with PCBP_OBS=0 against the default build, 10
 * alternating pairs. There the default build's medians read
 * accuracy_branches_per_s -9.2% and timing_branches_per_s -11.7%,
 * but the PCBP_OBS=0 runs' own interquartile ranges span 3.5% and
 * 5.8%, so the gate is unresolved on that host
 * (docs/OBSERVABILITY.md, "Overhead policy"). Cold-path counters
 * (store replay, pool batches) are unconditional plain members and
 * do not use these macros.
 */

#ifndef PCBP_OBS_PROBES_HH
#define PCBP_OBS_PROBES_HH

/** Probes compiled in by default; -DPCBP_OBS=0 strips them. */
#ifndef PCBP_OBS
#define PCBP_OBS 1
#endif

#if PCBP_OBS
/** ++counters->field when a counter block is attached. */
#define pcbp_obs_inc(counters, field) \
    do {                              \
        if (counters)                 \
            ++(counters)->field;      \
    } while (0)
/** counters->field += delta when a counter block is attached. */
#define pcbp_obs_add(counters, field, delta) \
    do {                                     \
        if (counters)                        \
            (counters)->field += (delta);    \
    } while (0)
/** counters->field = max(counters->field, v) when attached. */
#define pcbp_obs_max(counters, field, v)         \
    do {                                         \
        if (counters && (counters)->field < (v)) \
            (counters)->field = (v);             \
    } while (0)
#else
#define pcbp_obs_inc(counters, field) ((void)0)
#define pcbp_obs_add(counters, field, delta) ((void)0)
#define pcbp_obs_max(counters, field, v) ((void)0)
#endif

#endif // PCBP_OBS_PROBES_HH
