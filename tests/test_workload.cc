/**
 * @file
 * Unit tests for the workload substrate: behavior models, the CFG
 * program model, the generator, the suite registry, and trace
 * record/replay.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <set>

#include "support.hh"
#include "workload/behavior.hh"
#include "workload/cfg.hh"
#include "workload/generator.hh"
#include "workload/suites.hh"
#include "workload/trace.hh"
#include "workload/trace2.hh"

namespace pcbp
{
namespace
{

/**
 * One behavior walked on its own, the way a ProgramWalkStream walks
 * each block: its record, its own state, and a caller-held committed
 * history and commit index.
 */
struct Walked
{
    BranchBehavior b;
    BehaviorState s;

    explicit Walked(const BranchBehavior &beh)
        : b(beh), s(initialState(beh))
    {
    }

    bool
    next(const HistoryRegister &h, std::uint64_t t = 0,
         PhaseClock *clocks = nullptr)
    {
        return nextOutcome(b, s, ArchContext{h, t, clocks});
    }
};

// -------------------------------------------------------------- behaviors

TEST(Behavior, BiasedRate)
{
    Walked b(BranchBehavior::biased(0.8, 42));
    HistoryRegister h;
    int taken = 0;
    for (int i = 0; i < 10000; ++i)
        taken += b.next(h) ? 1 : 0;
    EXPECT_NEAR(taken / 10000.0, 0.8, 0.03);
}

TEST(Behavior, FreshStateReplays)
{
    const BranchBehavior beh = BranchBehavior::biased(0.5, 7);
    Walked a(beh);
    HistoryRegister h;
    std::vector<bool> first;
    for (int i = 0; i < 100; ++i)
        first.push_back(a.next(h));
    Walked b(beh);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(b.next(h), first[i]);
}

TEST(Behavior, LoopPeriod)
{
    Walked l(BranchBehavior::loop(4));
    HistoryRegister h;
    // T T T N repeating.
    for (int rep = 0; rep < 3; ++rep) {
        EXPECT_TRUE(l.next(h));
        EXPECT_TRUE(l.next(h));
        EXPECT_TRUE(l.next(h));
        EXPECT_FALSE(l.next(h));
    }
}

TEST(Behavior, PatternCycles)
{
    Walked p(BranchBehavior::pattern({true, false, false}, 0.0, 1));
    HistoryRegister h;
    for (int rep = 0; rep < 4; ++rep) {
        EXPECT_TRUE(p.next(h));
        EXPECT_FALSE(p.next(h));
        EXPECT_FALSE(p.next(h));
    }
}

TEST(Behavior, GlobalEchoCopiesLaggedBit)
{
    Walked e(BranchBehavior::globalEcho(3, false, 0.0, 1));
    HistoryRegister h;
    h.shiftIn(true);  // lag 3 after three more shifts
    h.shiftIn(false);
    h.shiftIn(false);
    h.shiftIn(false);
    EXPECT_TRUE(e.next(h));
}

TEST(Behavior, GlobalEchoInvert)
{
    Walked e(BranchBehavior::globalEcho(0, true, 0.0, 1));
    HistoryRegister h;
    h.shiftIn(true);
    EXPECT_FALSE(e.next(h));
}

TEST(Behavior, GlobalXorOfLags)
{
    Walked x(BranchBehavior::globalXor(0, 2, false, 0.0, 1));
    HistoryRegister h;
    h.shiftIn(true);  // bit 2 after two more shifts
    h.shiftIn(false); // bit 1
    h.shiftIn(true);  // bit 0
    // bits: [0]=T [1]=N [2]=T
    EXPECT_FALSE(x.next(h)) << "T xor T = N";
    h.shiftIn(true);
    // bits: [0]=T [1]=T [2]=N
    EXPECT_TRUE(x.next(h)) << "T xor N = T";
    h.shiftIn(false);
    // bits: [0]=N [1]=T [2]=T
    EXPECT_TRUE(x.next(h)) << "N xor T = T";
}

TEST(Behavior, GlobalParityWidth)
{
    Walked p(BranchBehavior::globalParity(0, 3, false, 0.0, 1));
    HistoryRegister h;
    h.shiftIn(true);
    h.shiftIn(true);
    h.shiftIn(false);
    // bits 0..2 = {0,1,1}: parity odd? two ones -> even -> false.
    EXPECT_FALSE(p.next(h));
    h.shiftIn(true); // bits {1,0,1}: two ones -> even -> false
    EXPECT_FALSE(p.next(h));
    h.shiftIn(false); // bits {0,1,0}: one -> odd -> true
    EXPECT_TRUE(p.next(h));
}

TEST(Behavior, LocalParityDeterministicAndBalanced)
{
    Walked l(BranchBehavior::localParity(5, 0.0, 3));
    HistoryRegister h;
    int taken = 0;
    for (int i = 0; i < 2000; ++i)
        taken += l.next(h) ? 1 : 0;
    // Self-referential parity oscillates; roughly balanced.
    EXPECT_GT(taken, 100) << "both outcomes must occur";
    EXPECT_LT(taken, 1900);
}

TEST(Behavior, PhaseClockSharedAcrossInstances)
{
    PhaseClockSpec spec;
    spec.seed = 99;
    spec.lo = 100;
    spec.hi = 200;
    PhaseClock a(spec), b(spec);
    for (std::uint64_t t = 0; t < 5000; t += 7)
        EXPECT_EQ(a.phaseAt(t), b.phaseAt(t));
}

TEST(Behavior, PhaseClockFlips)
{
    PhaseClockSpec spec;
    spec.seed = 5;
    spec.lo = 50;
    spec.hi = 80;
    PhaseClock c(spec);
    int flips = 0;
    bool last = c.phaseAt(0);
    for (std::uint64_t t = 1; t < 2000; ++t) {
        const bool ph = c.phaseAt(t);
        flips += ph != last;
        last = ph;
    }
    EXPECT_GE(flips, 20);
    EXPECT_LE(flips, 45);
}

TEST(Behavior, PhaseRevealTracksClock)
{
    PhaseClockSpec spec;
    spec.seed = 11;
    spec.lo = 300;
    spec.hi = 400;
    const BranchBehavior beh = BranchBehavior::phaseReveal(0, 1.0, 1);
    PhaseClock walk_clock(spec), c(spec);
    Walked r(beh);
    HistoryRegister h;
    std::vector<bool> first;
    for (std::uint64_t t = 0; t < 2000; t += 3) {
        first.push_back(r.next(h, t, &walk_clock));
        EXPECT_EQ(first.back(), c.phaseAt(t));
    }
    // A fresh state and clock restart the walk: the same phases
    // replay from t = 0.
    PhaseClock fresh_clock(spec);
    Walked again(beh);
    for (std::size_t i = 0; i < first.size(); ++i)
        EXPECT_EQ(again.next(h, 3 * i, &fresh_clock), first[i]) << i;
}

TEST(Behavior, DescribeNamesEachKind)
{
    EXPECT_EQ(describe(BranchBehavior::biased(0.25, 1)), "biased(0.250000)");
    EXPECT_EQ(describe(BranchBehavior::loop(7)), "loop(7)");
    EXPECT_EQ(describe(BranchBehavior::pattern({true, false, true}, 0.0, 1)),
              "pattern(TNT)");
    EXPECT_EQ(describe(BranchBehavior::localParity(3, 0.0, 1)),
              "local-parity(3)");
    EXPECT_EQ(describe(BranchBehavior::globalParity(4, 2, false, 0.0, 1)),
              "global-parity(lag=4,w=2)");
    EXPECT_EQ(describe(BranchBehavior::globalXor(17, 18, false, 0.0, 1)),
              "global-xor(17,18)");
    EXPECT_EQ(describe(BranchBehavior::globalEcho(20, true, 0.0, 1)),
              "global-echo(lag=20,inv)");
    EXPECT_EQ(describe(BranchBehavior::phaseReveal(0, 0.98, 1)),
              "phase-reveal(0.980000)");
    EXPECT_EQ(describe(BranchBehavior::phased(200, 2500, 0.9, 0.1, 1)),
              "phased(200..2500)");
}

// -------------------------------------------------------------------- CFG

TEST(Program, ValidateCatchesBadTargets)
{
    Program p("bad");
    BasicBlock b;
    b.branchPc = 0x1000;
    b.numUops = 4;
    b.takenTarget = 7; // out of range
    b.fallthroughTarget = 0;
    p.addBlock(b, BranchBehavior::biased(0.5, 1));
    EXPECT_DEATH(p.validate(), "target out of range");

    // A phase-reveal block naming a clock the program never added.
    Program q("noclock");
    b.takenTarget = 0;
    q.addBlock(b, BranchBehavior::phaseReveal(0, 0.9, 1));
    EXPECT_DEATH(q.validate(), "phase clock out of range");
}

TEST(Program, WalkFollowsOutcomes)
{
    Program p("walk");
    for (int i = 0; i < 2; ++i) {
        BasicBlock b;
        b.branchPc = 0x1000 + i * 16;
        b.numUops = 5;
        b.takenTarget = static_cast<BlockId>(1 - i);
        b.fallthroughTarget = static_cast<BlockId>(1 - i);
        p.addBlock(b, BranchBehavior::biased(1.0, 1));
    }
    p.validate();
    auto trace = walkProgram(p, 6);
    ASSERT_EQ(trace.size(), 6u);
    // Alternates 0 -> 1 -> 0 ...
    EXPECT_EQ(trace[0].block, 0u);
    EXPECT_EQ(trace[1].block, 1u);
    EXPECT_EQ(trace[2].block, 0u);
    for (const auto &r : trace) {
        EXPECT_TRUE(r.taken);
        EXPECT_EQ(r.numUops, 5u);
    }
}

TEST(Program, WalkIsRepeatable)
{
    const Workload &w = workloadByName("mm.mpeg");
    Program p = buildProgram(w);
    auto t1 = walkProgram(p, 5000);
    auto t2 = walkProgram(p, 5000); // a fresh walk of the same program
    ASSERT_EQ(t1.size(), t2.size());
    for (std::size_t i = 0; i < t1.size(); ++i) {
        EXPECT_EQ(t1[i].block, t2[i].block);
        EXPECT_EQ(t1[i].taken, t2[i].taken);
    }
}

// -------------------------------------------------------------- generator

TEST(Generator, DeterministicForSeed)
{
    WorkloadRecipe r;
    r.targetBlocks = 200;
    r.seed = 77;
    Program a = generateProgram(r);
    Program b = generateProgram(r);
    ASSERT_EQ(a.numBlocks(), b.numBlocks());
    for (BlockId i = 0; i < a.numBlocks(); ++i) {
        EXPECT_EQ(a.block(i).branchPc, b.block(i).branchPc);
        EXPECT_EQ(a.block(i).takenTarget, b.block(i).takenTarget);
        EXPECT_EQ(describe(a.behavior(i)), describe(b.behavior(i)));
    }
}

TEST(Generator, DifferentSeedsDiffer)
{
    WorkloadRecipe r;
    r.targetBlocks = 200;
    r.seed = 1;
    Program a = generateProgram(r);
    r.seed = 2;
    Program b = generateProgram(r);
    bool differs = a.numBlocks() != b.numBlocks();
    for (BlockId i = 0; !differs && i < a.numBlocks(); ++i)
        differs = describe(a.behavior(i)) != describe(b.behavior(i));
    EXPECT_TRUE(differs);
}

TEST(Generator, ContainsRequestedMotifs)
{
    WorkloadRecipe r;
    r.targetBlocks = 400;
    r.numChains = 5;
    r.numPhaseChains = 5;
    Program p = generateProgram(r);
    int xors = 0, echoes = 0, reveals = 0;
    for (BlockId i = 0; i < p.numBlocks(); ++i) {
        const std::string d = describe(p.behavior(i));
        xors += d.rfind("global-xor", 0) == 0;
        echoes += d.rfind("global-echo", 0) == 0;
        reveals += d.rfind("phase-reveal", 0) == 0;
    }
    EXPECT_EQ(xors, 5) << "one XOR consumer per echo chain";
    EXPECT_EQ(echoes, 10) << "two relays per echo chain";
    EXPECT_EQ(reveals, 10) << "consumer + inner revealer per phase chain";
}

TEST(Generator, UopsWithinRange)
{
    WorkloadRecipe r;
    r.targetBlocks = 150;
    r.minUops = 5;
    r.maxUops = 9;
    Program p = generateProgram(r);
    for (BlockId i = 0; i < p.numBlocks(); ++i) {
        EXPECT_GE(p.block(i).numUops, 5u);
        EXPECT_LE(p.block(i).numUops, 9u);
    }
}

TEST(Generator, WalkTouchesManyBlocks)
{
    WorkloadRecipe r;
    r.targetBlocks = 300;
    Program p = generateProgram(r);
    auto trace = walkProgram(p, 30000);
    std::set<BlockId> seen;
    for (const auto &t : trace)
        seen.insert(t.block);
    EXPECT_GT(seen.size(), p.numBlocks() / 2)
        << "most of the program should be reachable";
}

// ----------------------------------------------------------------- suites

TEST(Suites, RegistryComplete)
{
    EXPECT_GE(allWorkloads().size(), 21u);
    EXPECT_EQ(fig5Set().size(), 6u);
    EXPECT_EQ(avgSet().size(), 14u);
    for (const auto &s : allSuites())
        EXPECT_EQ(suiteWorkloads(s).size(), 2u) << s;
}

TEST(Suites, NamesResolve)
{
    for (const char *n : {"unzip", "premiere", "msvc7", "flash",
                          "facerec", "tpcc", "gcc"})
        EXPECT_EQ(workloadByName(n).name, n);
}

TEST(Suites, ProgramsBuildAndValidate)
{
    for (const auto &w : allWorkloads()) {
        Program p = buildProgram(w);
        EXPECT_GT(p.numBlocks(), 50u) << w.name;
    }
}

/** 64-bit FNV-1a over a sequence of little-endian words. */
struct Fnv1a
{
    std::uint64_t hash = 0xcbf29ce484222325ull;

    void
    mix(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            hash ^= (v >> (8 * i)) & 0xff;
            hash *= 0x100000001b3ull;
        }
    }

    void
    mixDouble(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        mix(bits);
    }
};

TEST(Suites, ProgramsMatchGolden)
{
    // Every registry program, pinned: its block count, a digest of
    // every block (PC, uops, targets, behavior kind and parameters)
    // and of its phase clocks, and a digest of the first 100,000
    // committed branches of a walk. A generator or recipe change
    // that moves any of them shows up as one reviewed golden diff.
    std::string rendered;
    for (const Workload &w : allWorkloads()) {
        const Program p = buildProgram(w);
        Fnv1a blocks;
        for (BlockId i = 0; i < p.numBlocks(); ++i) {
            const BasicBlock &b = p.block(i);
            const BranchBehavior &beh = p.behavior(i);
            blocks.mix(b.branchPc);
            blocks.mix(b.numUops);
            blocks.mix(b.takenTarget);
            blocks.mix(b.fallthroughTarget);
            blocks.mix(static_cast<std::uint64_t>(beh.kind));
            blocks.mix(beh.invert);
            blocks.mix(beh.n0);
            blocks.mix(beh.n1);
            blocks.mixDouble(beh.p0);
            blocks.mixDouble(beh.p1);
            blocks.mix(beh.seed);
        }
        for (const PhaseClockSpec &c : p.phaseClocks()) {
            blocks.mix(c.seed);
            blocks.mix(c.lo);
            blocks.mix(c.hi);
        }
        Fnv1a walk;
        for (const CommittedBranch &c : walkProgram(p, 100000)) {
            walk.mix(c.block);
            walk.mix(c.pc);
            walk.mix(c.taken);
            walk.mix(c.numUops);
        }
        char line[160];
        std::snprintf(line, sizeof(line),
                      "%s blocks=%zu program=%016" PRIx64
                      " walk=%016" PRIx64 "\n",
                      w.name.c_str(), p.numBlocks(), blocks.hash,
                      walk.hash);
        rendered += line;
    }
    expectMatchesGolden(rendered, "programs.txt");
}

TEST(Suites, UopsPerBranchNearThirteen)
{
    // The paper: IA32 conditional branches every ~13 uops on
    // average. Our default recipes target the same order.
    double total_uops = 0, total_branches = 0;
    for (const Workload *w : avgSet()) {
        Program p = buildProgram(*w);
        auto trace = walkProgram(p, 20000);
        for (const auto &t : trace) {
            total_uops += t.numUops;
            ++total_branches;
        }
    }
    const double upb = total_uops / total_branches;
    EXPECT_GT(upb, 8.0);
    EXPECT_LT(upb, 20.0);
}

// ------------------------------------------------------------------ trace

/** Write @p records to a PCBPTRC2 file at @p path. */
void
writeTrace(const std::string &path,
           const std::vector<CommittedBranch> &records)
{
    Trace2Writer w(path);
    for (const CommittedBranch &r : records)
        w.append(r);
    w.finish();
}

TEST(Trace, SaveLoadRoundTrip)
{
    const Workload &w = workloadByName("fp.swim");
    Program p = buildProgram(w);
    auto trace = walkProgram(p, 3000);

    const std::string path = testing::TempDir() + "pcbp_trace_test.trc";
    writeTrace(path, trace);
    const std::vector<CommittedBranch> loaded = readTrace(path);
    std::remove(path.c_str());

    ASSERT_EQ(loaded.size(), trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i) {
        EXPECT_EQ(loaded[i].block, trace[i].block);
        EXPECT_EQ(loaded[i].pc, trace[i].pc);
        EXPECT_EQ(loaded[i].taken, trace[i].taken);
        EXPECT_EQ(loaded[i].numUops, trace[i].numUops);
    }
}

TEST(Trace, Summary)
{
    const std::string path = testing::TempDir() + "pcbp_summary.trc";
    writeTrace(path, {
                         {0, 0x1000, true, 5},
                         {1, 0x1010, false, 7},
                         {0, 0x1000, true, 5},
                     });
    const TraceSummary s = summarizeTraceFile(path);
    std::remove(path.c_str());
    EXPECT_EQ(s.branches, 3u);
    EXPECT_EQ(s.uops, 17u);
    EXPECT_EQ(s.takenBranches, 2u);
    EXPECT_EQ(s.staticBranches, 2u);
    EXPECT_NEAR(s.takenRate(), 2.0 / 3.0, 1e-9);
    EXPECT_NEAR(s.uopsPerBranch(), 17.0 / 3.0, 1e-9);
}

} // namespace
} // namespace pcbp
