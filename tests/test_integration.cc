/**
 * @file
 * Integration tests: distilled programs that exercise the
 * prophet/critic mechanism end to end through the wrong-path engine,
 * checking that each information channel the paper relies on
 * actually works in this implementation.
 */

#include <gtest/gtest.h>

#include "core/presets.hh"
#include "sim/driver.hh"
#include "sim/engine.hh"
#include "sim/metrics.hh"
#include "workload/cfg.hh"
#include "workload/generator.hh"

namespace pcbp
{
namespace
{

/** Engine config for small deterministic tests. */
EngineConfig
testConfig(std::uint64_t measure = 60000, std::uint64_t warmup = 20000)
{
    EngineConfig cfg;
    cfg.measureBranches = measure;
    cfg.warmupBranches = warmup;
    return cfg;
}

/**
 * A distilled echo-chain program:
 *
 *   f0..f1: biased filler (mild entropy)
 *   e0,e1:  two independent 50/50 entropy sources
 *   s:      XOR (parity) of the two entropy bits from two iterations
 *           ago — genuinely unlearnable for a perceptron (XOR is not
 *           linearly separable) even though the bits are inside its
 *           history window
 *   armT/armF: opposite strong biases (wrong-path signature)
 *   r1,r2:  echo relays exposing s's source bits at lags the prophet
 *           *can* learn (each is a single-bit copy)
 *
 * laid out exactly like the generator's chain motif. The program has
 * 9 blocks but only 8 commits per iteration (one arm executes), so
 * with L = 18 and W = 2, s reads the entropy bits e1, e0 from two
 * iterations back.
 */
Program
chainProgram(unsigned L, unsigned W, double chain_noise = 0.0)
{
    Program p("chain-test");
    auto filler = [&](BlockId id, double bias, std::uint64_t seed) {
        BasicBlock b;
        b.branchPc = 0x1000 + id * 16;
        b.numUops = 10;
        b.takenTarget = static_cast<BlockId>(id + 1);
        b.fallthroughTarget = static_cast<BlockId>(id + 1);
        p.addBlock(b, BranchBehavior::biased(bias, seed));
        return id + 1;
    };

    BlockId id = 0;
    id = filler(id, 0.85, 101);
    id = filler(id, 0.20, 102);
    id = filler(id, 0.50, 103); // entropy source e0
    id = filler(id, 0.50, 104); // entropy source e1

    // s: hard branch.
    BasicBlock s;
    s.branchPc = 0x1000 + id * 16;
    s.numUops = 10;
    s.takenTarget = static_cast<BlockId>(id + 1);
    s.fallthroughTarget = static_cast<BlockId>(id + 2);
    p.addBlock(s, BranchBehavior::globalParity(L, W, false, chain_noise,
                                               105));
    ++id;

    // Arms.
    for (int arm = 0; arm < 2; ++arm) {
        BasicBlock a;
        a.branchPc = 0x1000 + id * 16;
        a.numUops = 10;
        a.takenTarget = static_cast<BlockId>(id + (arm == 0 ? 2 : 1));
        a.fallthroughTarget = a.takenTarget;
        p.addBlock(a, BranchBehavior::biased(arm == 0 ? 0.95 : 0.05,
                                             106 + arm));
        ++id;
    }

    // Relays r1, r2 with the lag alignment of the generator: r_j
    // commits j+1 branches after s; relay lag L + reveal + (j+1).
    for (unsigned j = 1; j <= 2; ++j) {
        BasicBlock r;
        r.branchPc = 0x1000 + id * 16;
        r.numUops = 10;
        r.takenTarget = static_cast<BlockId>(id + 1);
        r.fallthroughTarget = static_cast<BlockId>(id + 1);
        const unsigned reveal = std::min(W - 1, j - 1);
        p.addBlock(r, BranchBehavior::globalEcho(L + reveal + (j + 1),
                                                 false, chain_noise,
                                                 108 + j));
        ++id;
    }

    // Wrap around.
    p.blockMut(static_cast<BlockId>(p.numBlocks() - 1)).takenTarget = 0;
    p.blockMut(static_cast<BlockId>(p.numBlocks() - 1)).fallthroughTarget =
        0;
    p.validate();
    return p;
}

/** Final mispredict rate of a spec on a program. */
double
mispRateOf(Program &prog, const HybridSpec &spec, const EngineConfig &cfg)
{
    auto hybrid = spec.build();
    Engine engine(prog, *hybrid, cfg);
    return engine.run().mispRate();
}

TEST(ChainChannel, RelaysAreLearnableByPerceptronProphet)
{
    // The relays' echo lags are within the 8KB perceptron's 28-bit
    // history, so a prophet alone should predict them (and the easy
    // fillers) well; only s and the 50/50 fillers stay hard.
    Program prog = chainProgram(16, 2);
    auto cfg = testConfig();
    H2PProfiler profiler(cfg.warmupBranches);
    cfg.commitSink = &profiler;

    auto hybrid = prophetAlone(ProphetKind::Perceptron,
                               Budget::B8KB).build();
    Engine engine(prog, *hybrid, cfg);
    engine.run();

    // Locate the relay pcs (blocks 7 and 8) in per-branch profiles.
    double relay_wrong = 0, relay_execs = 0;
    double s_wrong = 0, s_execs = 0;
    for (const BranchProfile &pb : profiler.profiles()) {
        if (pb.pc == 0x1000 + 7 * 16 || pb.pc == 0x1000 + 8 * 16) {
            relay_wrong += double(pb.prophetWrong);
            relay_execs += double(pb.execs);
        }
        if (pb.pc == 0x1000 + 4 * 16) {
            s_wrong += double(pb.prophetWrong);
            s_execs += double(pb.execs);
        }
    }
    ASSERT_GT(relay_execs, 0);
    ASSERT_GT(s_execs, 0);
    EXPECT_LT(relay_wrong / relay_execs, 0.10)
        << "prophet failed to learn the echo relays";
    EXPECT_GT(s_wrong / s_execs, 0.35)
        << "the parity branch should be hard for the prophet";
}

/** Per-branch profile of s (block 4, pc 0x1040) under a spec. */
BranchProfile
hardBranchProfile(const HybridSpec &spec)
{
    Program prog = chainProgram(16, 2);
    EngineConfig cfg = testConfig();
    H2PProfiler profiler(cfg.warmupBranches);
    cfg.commitSink = &profiler;
    auto hybrid = spec.build();
    Engine engine(prog, *hybrid, cfg);
    engine.run();
    for (const BranchProfile &pb : profiler.profiles())
        if (pb.pc == 0x1000 + 4 * 16)
            return pb;
    return {};
}

TEST(ChainChannel, FutureBitsUnlockTheHardBranch)
{
    // With enough future bits the critic sees the relays'
    // predictions, which determine s's outcome; the hybrid should
    // fix most of s's mispredicts. With 1 future bit it cannot
    // (the relays' predictions are not in the BOR yet, and the
    // source bits are outside the critic's history window).
    const BranchProfile fb1 = hardBranchProfile(
        hybridSpec(ProphetKind::Perceptron, Budget::B8KB,
                   CriticKind::TaggedGshare, Budget::B8KB, 1));
    const BranchProfile fb8 = hardBranchProfile(
        hybridSpec(ProphetKind::Perceptron, Budget::B8KB,
                   CriticKind::TaggedGshare, Budget::B8KB, 8));

    ASSERT_GT(fb1.execs, 0u);
    ASSERT_GT(fb8.execs, 0u);
    // The prophet stays near-chance on s in both runs.
    EXPECT_GT(double(fb8.prophetWrong) / double(fb8.execs), 0.35);
    // 8 future bits fix most of s's mispredicts; 1 future bit can't.
    EXPECT_LT(double(fb8.finalWrong), 0.6 * double(fb8.prophetWrong))
        << "8 future bits should fix the hard branch";
    EXPECT_GT(double(fb1.finalWrong), 0.8 * double(fb1.prophetWrong))
        << "1 future bit should not be able to fix the hard branch";
}

/**
 * Distilled phase chain: a long outer loop (so the consumer is
 * *cold* — its own previous outcome is far outside any history
 * window), a phase consumer, diamond arms, and an inner loop whose
 * body holds a phase revealer. The revealer's self-echo keeps its
 * predictions fresh; the consumer's critique reads them as future
 * bits.
 */
Program
phaseProgram()
{
    Program p("phase-test");
    PhaseClockSpec spec;
    spec.seed = 77;
    spec.lo = 200;
    spec.hi = 600;
    const unsigned clock = p.addPhaseClock(spec);

    Rng rng(4242);
    auto add = [&](const BranchBehavior &beh) {
        const BlockId id = static_cast<BlockId>(p.numBlocks());
        BasicBlock b;
        b.branchPc = 0x2000 + id * 16;
        b.numUops = 10;
        b.takenTarget = static_cast<BlockId>(id + 1);
        b.fallthroughTarget = static_cast<BlockId>(id + 1);
        p.addBlock(b, beh);
        return id;
    };

    // Quiet filler blocks make the outer pass long enough that the
    // consumer's own history is invisible to a 13-bit prophet, while
    // contributing almost no mispredicts of their own.
    for (int i = 0; i < 12; ++i) {
        const std::uint64_t seed = rng.next();
        add(BranchBehavior::biased(rng.nextBool(0.5) ? 0.99 : 0.01, seed));
    }

    // Consumer with diamond arms.
    const BlockId s = add(BranchBehavior::phaseReveal(clock, 0.99, 901));
    const BlockId arm_t = add(BranchBehavior::biased(0.95, 902));
    const BlockId arm_f = add(BranchBehavior::biased(0.05, 903));
    // Inner loop: revealer + latch looping 5 times.
    const BlockId rev = add(BranchBehavior::phaseReveal(clock, 0.98, 904));
    const BlockId latch = add(BranchBehavior::loop(5));

    p.blockMut(s).takenTarget = arm_t;
    p.blockMut(s).fallthroughTarget = arm_f;
    p.blockMut(arm_t).takenTarget = rev;
    p.blockMut(arm_t).fallthroughTarget = rev;
    p.blockMut(arm_f).takenTarget = rev;
    p.blockMut(arm_f).fallthroughTarget = rev;
    p.blockMut(latch).takenTarget = rev; // back edge
    p.blockMut(latch).fallthroughTarget = 0;
    p.validate();
    return p;
}

TEST(PhaseChannel, DeepBorHistoryUnlocksColdConsumer)
{
    // The phase information reaches the critic through its BOR
    // *history*: the previous pass's revealer outcomes sit at lags
    // 13-21 of the consumer — deeper than the 13-bit gskew prophet
    // can see, but inside the critic's 18-bit BOR window when few
    // future bits are in use. (Future bits carry only prophet-state
    // information, so at high counts the channel closes — the
    // history-loss tradeoff of §7.1 in distilled form.)
    const auto cfg = testConfig(80000, 20000);
    Program p1 = phaseProgram();
    const double alone = mispRateOf(
        p1, prophetAlone(ProphetKind::GSkew, Budget::B8KB), cfg);
    Program p2 = phaseProgram();
    const double fb2 = mispRateOf(
        p2,
        hybridSpec(ProphetKind::GSkew, Budget::B8KB,
                   CriticKind::TaggedGshare, Budget::B8KB, 2),
        cfg);
    Program p3 = phaseProgram();
    const double fb8 = mispRateOf(
        p3,
        hybridSpec(ProphetKind::GSkew, Budget::B8KB,
                   CriticKind::TaggedGshare, Budget::B8KB, 8),
        cfg);

    EXPECT_LT(fb2, alone * 0.95)
        << "phase chain not exploited (alone=" << alone
        << ", fb2=" << fb2 << ")";
    EXPECT_LT(fb2, fb8)
        << "this channel must work through history bits, which 8 "
           "future bits displace";
}

TEST(Engine, DeterministicAcrossRuns)
{
    const Workload &w = workloadByName("mm.mpeg");
    const auto spec = hybridSpec(ProphetKind::Perceptron, Budget::B8KB,
                                 CriticKind::TaggedGshare, Budget::B8KB,
                                 8);
    EngineConfig cfg = testConfig(30000, 5000);
    Program p1 = buildProgram(w);
    Program p2 = buildProgram(w);
    auto h1 = spec.build();
    auto h2 = spec.build();
    EngineStats a = Engine(p1, *h1, cfg).run();
    EngineStats b = Engine(p2, *h2, cfg).run();
    EXPECT_EQ(a.finalMispredicts, b.finalMispredicts);
    EXPECT_EQ(a.committedUops, b.committedUops);
    EXPECT_EQ(a.criticOverrides, b.criticOverrides);
    EXPECT_EQ(a.critiques.total(), b.critiques.total());
}

TEST(Engine, CommittedPathIndependentOfPredictor)
{
    // The same workload must commit the same uops and branches under
    // any predictor (architectural path independence).
    const Workload &w = workloadByName("mm.mpeg");
    EngineConfig cfg = testConfig(30000, 5000);

    Program p1 = buildProgram(w);
    auto h1 = prophetAlone(ProphetKind::AlwaysTaken,
                           Budget::B2KB).build();
    EngineStats a = Engine(p1, *h1, cfg).run();

    Program p2 = buildProgram(w);
    auto h2 = hybridSpec(ProphetKind::Perceptron, Budget::B32KB,
                         CriticKind::FilteredPerceptron, Budget::B32KB,
                         12)
                  .build();
    EngineStats b = Engine(p2, *h2, cfg).run();

    EXPECT_EQ(a.committedBranches, b.committedBranches);
    EXPECT_EQ(a.committedUops, b.committedUops);
}

TEST(Engine, CriticNeverHurtsMuchOnAverageSet)
{
    // Sanity guard while tuning: across the mm.mpeg workload the
    // hybrid at 8 future bits should beat the prophet alone at equal
    // *prophet* size (the paper's minimum claim, Fig. 6).
    const Workload &w = workloadByName("mm.mpeg");
    EngineConfig cfg = testConfig();
    Program p1 = buildProgram(w);
    auto alone = prophetAlone(ProphetKind::Perceptron, Budget::B8KB);
    auto h1 = alone.build();
    const double base = Engine(p1, *h1, cfg).run().mispRate();

    Program p2 = buildProgram(w);
    auto spec = hybridSpec(ProphetKind::Perceptron, Budget::B8KB,
                           CriticKind::TaggedGshare, Budget::B8KB, 8);
    auto h2 = spec.build();
    const double hyb = Engine(p2, *h2, cfg).run().mispRate();

    EXPECT_LT(hyb, base) << "adding a critic must reduce mispredicts";
}

TEST(Engine, OracleFutureBitsInflateAccuracy)
{
    // §6: trace-driven (oracle) future bits give the critic
    // information it cannot have; the measured mispredict rate must
    // be at least as good as the real wrong-path rate.
    const Workload &w = workloadByName("int.crafty");
    const auto spec = hybridSpec(ProphetKind::Perceptron, Budget::B8KB,
                                 CriticKind::TaggedGshare, Budget::B8KB,
                                 8);
    EngineConfig real_cfg = testConfig();
    EngineConfig oracle_cfg = testConfig();
    oracle_cfg.oracleFutureBits = true;

    Program p1 = buildProgram(w);
    auto h1 = spec.build();
    const double real = Engine(p1, *h1, real_cfg).run().mispRate();

    Program p2 = buildProgram(w);
    auto h2 = spec.build();
    const double oracle = Engine(p2, *h2, oracle_cfg).run().mispRate();

    EXPECT_LT(oracle, real * 1.05)
        << "oracle future bits should never be clearly worse";
}

TEST(Engine, BtbMissesAllocatedAndRare)
{
    const Workload &w = workloadByName("mm.mpeg");
    const auto spec = prophetAlone(ProphetKind::Gshare, Budget::B8KB);
    EngineConfig cfg = testConfig();
    Program p = buildProgram(w);
    auto h = spec.build();
    EngineStats st = Engine(p, *h, cfg).run();
    // ~300 static branches and a 4096-entry BTB: after warmup the
    // steady-state BTB miss rate must be tiny.
    EXPECT_LT(double(st.btbMisses) / double(st.committedBranches),
              0.001);
}

} // namespace
} // namespace pcbp
