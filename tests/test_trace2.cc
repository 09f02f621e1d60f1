/**
 * @file
 * PCBPTRC2 format-level property tests (DESIGN.md §13).
 *
 * The compressed indexed trace store earns its place only if it is
 * *invisible* to everything downstream:
 *
 * - lossless: random program walks and adversarial random record
 *   payloads (dictionary exceptions included) read back exactly, at
 *   every block geometry;
 * - stream-equivalent: CompressedTraceStream yields the exact record
 *   sequence of the recorded walk, directly and through forks, and
 *   engine replay over it equals replay of the same records held in
 *   memory (exporting trace.store.* host stats);
 * - replayable or refused as a whole: a file that is not PCBPTRC2,
 *   or a trace whose branch direction has two successors, fails
 *   before any replay runs;
 * - compact: file bytes <= 4 + 4.25 x records on a recorded CFG-walk
 *   trace (the full 10M-branch criterion runs in test_longrun.cc);
 * - identified: `pcbp_trace info` output is deterministic and its
 *   key list is pinned by a golden;
 * - stable on the wire: the size and digest of fixed recordings and
 *   of an import are pinned by a golden, so a faster writer must
 *   write the same bytes, and a faster reconstruction must build the
 *   same replay CFG from an adversarial trace;
 * - looked up right: the flat id table under the dictionaries agrees
 *   with std::map on dense, sparse and colliding keys.
 */

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "obs/stat_registry.hh"
#include "sim/committed_stream.hh"
#include "sim/driver.hh"
#include "support.hh"
#include "workload/generator.hh"
#include "workload/suites.hh"
#include "workload/trace.hh"
#include "workload/trace2.hh"

namespace pcbp
{
namespace
{

void
saveTrace2(const std::string &path,
           const std::vector<CommittedBranch> &records,
           std::uint32_t records_per_block)
{
    Trace2Writer w(path, records_per_block);
    for (const CommittedBranch &r : records)
        w.append(r);
    w.finish();
}

WorkloadRecipe
traceRecipe(std::uint64_t seed)
{
    WorkloadRecipe r;
    r.name = "trc2-" + std::to_string(seed);
    r.seed = seed;
    r.targetBlocks = 150 + unsigned(seed % 5) * 40;
    r.numChains = 4;
    r.numPhaseChains = 2;
    return r;
}

/** Adversarial payloads: extremes, id holes, and repeated block ids
 *  with *different* pc/uops, which force the per-record dictionary
 *  exception path a genuine CFG walk never takes. */
std::vector<CommittedBranch>
randomRecords(Rng &rng, std::size_t n)
{
    std::vector<CommittedBranch> t;
    t.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        CommittedBranch r;
        switch (rng.nextBelow(8)) {
          case 0:
            r.block = 0;
            break;
          case 1:
            r.block = 0xffffffffu;
            break;
          default:
            r.block = BlockId(rng.nextBelow(64));
        }
        r.pc = rng.nextBelow(4) == 0 ? rng.next()
                                     : 0x400000 + (Addr(r.block) << 4);
        r.taken = rng.nextBool(0.5);
        r.numUops = rng.nextBelow(8) == 0
                        ? 0xffffffffu
                        : std::uint32_t(rng.nextBelow(64));
        t.push_back(r);
    }
    return t;
}

void
expectSameRecords(const std::vector<CommittedBranch> &a,
                  const std::vector<CommittedBranch> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].block, b[i].block) << "record " << i;
        ASSERT_EQ(a[i].pc, b[i].pc) << "record " << i;
        ASSERT_EQ(a[i].taken, b[i].taken) << "record " << i;
        ASSERT_EQ(a[i].numUops, b[i].numUops) << "record " << i;
    }
}

// --------------------------------------------------- lossless store

TEST(Trace2, RandomProgramWalkRoundTripsCompactly)
{
    const std::string v2 = tmpPath("t2_walk.pcbptrc2");
    for (const std::uint64_t seed : {3u, 77u}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Program p = generateProgram(traceRecipe(seed));
        const auto walk = walkProgram(p, 20000);
        saveTrace2(v2, walk, trace2fmt::defaultBlockRecords);
        expectSameRecords(readTrace(v2), walk);

        // A CFG walk revisits each static branch with fixed pc/uops,
        // so the dictionary covers every record: expect real
        // compression, within the bound of a quarter of a flat
        // 16-byte header plus 17 bytes per record.
        const auto info = Trace2Reader::open(v2)->info();
        EXPECT_EQ(info.recordCount, walk.size());
        EXPECT_LE(double(info.fileBytes),
                  4.0 + 4.25 * double(walk.size()));
    }
    std::remove(v2.c_str());
}

TEST(Trace2, AdversarialRecordsRoundTripAtEveryBlockGeometry)
{
    const std::string v2 = tmpPath("t2_adv.pcbptrc2");
    Rng rng(20240);
    for (const std::uint32_t rpb : {1u, 3u, 64u, 4096u}) {
        for (int iter = 0; iter < 4; ++iter) {
            SCOPED_TRACE("rpb " + std::to_string(rpb) + " iter " +
                         std::to_string(iter));
            const auto records =
                randomRecords(rng, std::size_t(rng.nextBelow(700)));
            {
                Trace2Writer w(v2, rpb);
                for (const auto &r : records)
                    w.append(r);
                w.finish();
                EXPECT_EQ(w.written(), records.size());
            }
            expectSameRecords(readTrace(v2), records);

            const auto reader = Trace2Reader::open(v2);
            EXPECT_EQ(reader->recordCount(), records.size());
            EXPECT_EQ(reader->numBlocks(),
                      (records.size() + rpb - 1) / rpb);
        }
    }
    std::remove(v2.c_str());
}

TEST(Trace2, EmptyTraceRoundTrips)
{
    const std::string v2 = tmpPath("t2_empty.pcbptrc2");
    saveTrace2(v2, {}, trace2fmt::defaultBlockRecords);
    EXPECT_TRUE(readTrace(v2).empty());
    const auto reader = Trace2Reader::open(v2);
    EXPECT_EQ(reader->recordCount(), 0u);
    EXPECT_EQ(reader->numBlocks(), 0u);
    std::remove(v2.c_str());
}

TEST(Trace2, SummaryMatchesRecordedWalk)
{
    const std::string v2 = tmpPath("t2_sum.pcbptrc2");
    Program p = generateProgram(traceRecipe(11));
    const auto walk = walkProgram(p, 9000);
    saveTrace2(v2, walk, 512);

    std::uint64_t uops = 0, taken = 0;
    std::set<Addr> pcs;
    for (const CommittedBranch &r : walk) {
        uops += r.numUops;
        taken += r.taken;
        pcs.insert(r.pc);
    }
    const TraceSummary s = summarizeTraceFile(v2);
    EXPECT_EQ(s.branches, walk.size());
    EXPECT_EQ(s.uops, uops);
    EXPECT_EQ(s.takenBranches, taken);
    EXPECT_EQ(s.staticBranches, pcs.size());
    std::remove(v2.c_str());
}

// ------------------------------------------------- stream equivalence

TEST(Trace2, CompressedStreamMatchesRecordedWalkRecordForRecord)
{
    const std::string v2 = tmpPath("t2_stream.pcbptrc2");
    Program p = generateProgram(traceRecipe(21));
    const auto walk = walkProgram(p, 15000);
    saveTrace2(v2, walk, 512);

    auto s = openTraceStream(v2);
    EXPECT_STREQ(s->backendName(), "trace2");
    ASSERT_EQ(s->length(), walk.size());

    for (std::uint64_t i = 0; i < walk.size(); ++i) {
        const CommittedBranch *r = s->at(i);
        ASSERT_NE(r, nullptr);
        ASSERT_EQ(r->block, walk[std::size_t(i)].block) << "record " << i;
        ASSERT_EQ(r->pc, walk[std::size_t(i)].pc) << "record " << i;
        ASSERT_EQ(r->taken, walk[std::size_t(i)].taken) << "record " << i;
        ASSERT_EQ(r->numUops, walk[std::size_t(i)].numUops)
            << "record " << i;
        s->release(i);
    }
    EXPECT_EQ(s->at(walk.size()), nullptr);
    // Sequential replay decodes each block exactly once.
    EXPECT_EQ(s->blocksDecoded(), (walk.size() + 511) / 512);
    std::remove(v2.c_str());
}

TEST(Trace2, CompressedStreamForkContinuesIdentically)
{
    const std::string v2 = tmpPath("t2_fork.pcbptrc2");
    Program p = generateProgram(traceRecipe(31));
    const auto walk = walkProgram(p, 6000);
    saveTrace2(v2, walk, 256);

    auto s = openTraceStream(v2);
    for (std::uint64_t i = 0; i < 2500; ++i) {
        ASSERT_NE(s->at(i), nullptr);
        s->release(i + 1);
    }
    auto fork = std::make_unique<CompressedTraceStream>(*s);
    for (std::uint64_t i = 2500; i < walk.size(); ++i) {
        const CommittedBranch *rf = fork->at(i);
        ASSERT_NE(rf, nullptr);
        ASSERT_EQ(rf->block, walk[std::size_t(i)].block) << i;
        ASSERT_EQ(rf->taken, walk[std::size_t(i)].taken) << i;
        fork->release(i + 1);
    }
    EXPECT_EQ(fork->at(walk.size()), nullptr);
    // The original is untouched by the fork's progress.
    ASSERT_NE(s->at(2500), nullptr);
    std::remove(v2.c_str());
}

// ------------------------------------------------ replay + host stats

TEST(Trace2, EngineReplayMatchesInMemoryReplayAndExportsStoreStats)
{
    const std::string v2 = tmpPath("t2_replay.pcbptrc2");
    Program src = generateProgram(traceRecipe(51));
    const auto walk = walkProgram(src, 8000);
    saveTrace2(v2, walk, 1024);

    const HybridSpec spec =
        hybridSpec(ProphetKind::Perceptron, Budget::B2KB,
                   CriticKind::TaggedGshare, Budget::B2KB, 8);
    EngineConfig cfg;
    cfg.warmupBranches = 800;
    cfg.measureBranches = 7200;

    const auto replay = [&](CommittedStream &stream, StatRegistry &reg) {
        Program p = reconstructProgramFromTrace(v2, "t2-replay");
        auto h = spec.build();
        EngineConfig c = cfg;
        c.statsOut = &reg;
        return Engine(p, *h, c).run(stream);
    };

    StatRegistry ra, rb;
    PrecomputedStream memory(walk);
    const EngineStats sa = replay(memory, ra);
    const EngineStats sb = replay(*openTraceStream(v2), rb);
    EXPECT_EQ(sa.committedBranches, sb.committedBranches);
    EXPECT_EQ(sa.committedUops, sb.committedUops);
    EXPECT_EQ(sa.finalMispredicts, sb.finalMispredicts);
    EXPECT_EQ(sa.criticOverrides, sb.criticOverrides);

    // The backends differ only where they are allowed to: the sim
    // section's backend tag, and the host-only trace.store.* block.
    EXPECT_EQ(ra.simValue("stream.produced"),
              rb.simValue("stream.produced"));
    EXPECT_EQ(ra.simValue("stream.backend.precomputed"), 1u);
    EXPECT_EQ(rb.simValue("stream.backend.trace2"), 1u);
    EXPECT_EQ(ra.toJson().find("trace.store."), std::string::npos);
    EXPECT_NE(rb.toJson().find("\"trace.store.blocks_decoded\""),
              std::string::npos);
    EXPECT_NE(rb.toJson().find("\"trace.store.bytes_mapped\""),
              std::string::npos);
    std::remove(v2.c_str());
}

// ------------------------------------ replayable or refused as a whole

TEST(Trace2, ForeignFileFailsReplayBeforeAnyRun)
{
    const std::string text = tmpPath("t2_foreign.txt");
    const std::string empty = tmpPath("t2_foreign_empty.bin");
    {
        std::ofstream f(text, std::ios::binary);
        for (int i = 0; i < 20; ++i)
            f << "0x400000 T 3\n";
    }
    std::ofstream(empty, std::ios::binary).close();

    for (const std::string &path : {text, empty}) {
        SCOPED_TRACE(path);
        EXPECT_EXIT(workloadByName("trace:" + path),
                    testing::ExitedWithCode(1), "PCBPTRC2");
        EXPECT_EXIT(openTraceStream(path), testing::ExitedWithCode(1),
                    "PCBPTRC2");
    }
    std::remove(text.c_str());
    std::remove(empty.c_str());
}

TEST(Trace2, BranchWithTwoSuccessorsFailsReplayNamingTheRecord)
{
    // The usual shape of a real-program trace: 0x100 is reached from
    // two call sites, so its taken direction leads to 0x200 on one
    // visit and to 0x300 on the next. Record 2 is the first 0x100
    // whose successor differs from an earlier one's.
    const std::string in = tmpPath("t2_two_succ.txt");
    const std::string path = tmpPath("t2_two_succ.pcbptrc2");
    {
        std::ofstream f(in, std::ios::binary);
        for (int i = 0; i < 50; ++i) {
            f << "0x100 T 5\n"
              << (i % 2 ? "0x300" : "0x200") << (i % 3 ? " T" : " N")
              << " 7\n";
        }
    }
    ASSERT_EQ(importAsciiTrace(in, path), 100u);

    const Workload &w = workloadByName("trace:" + path);
    const HybridSpec spec = prophetAlone(ProphetKind::Gshare, Budget::B2KB);
    const char *want = "record 2: the taken branch at 0x100 continues "
                       "to 0x300 where it continued to 0x200 before";
    EXPECT_EXIT(runAccuracy(w, spec), testing::ExitedWithCode(1), want);
    EXPECT_EXIT(runTiming(w, spec), testing::ExitedWithCode(1), want);
    // The file is replayable or not as a whole: a run that would stop
    // before the conflict is refused too.
    EngineConfig tiny;
    tiny.warmupBranches = 0;
    tiny.measureBranches = 1;
    EXPECT_EXIT(runAccuracy(w, spec, tiny), testing::ExitedWithCode(1),
                "record 2");
    std::remove(in.c_str());
    std::remove(path.c_str());
}

// ----------------------------------------------------- wire bytes

/** "NAME SIZE FNV1A64" for the file at @p path. */
std::string
digestLine(const std::string &name, const std::string &path)
{
    const std::string bytes = slurp(path);
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    char line[160];
    std::snprintf(line, sizeof(line), "%s %zu %016" PRIx64 "\n",
                  name.c_str(), bytes.size(), h);
    return line;
}

TEST(Trace2, WrittenBytesMatchGolden)
{
    // The writer may get faster, but the format is a contract: these
    // files must keep the exact bytes they had when the golden was
    // taken. A registry walk at the default and at a small block
    // size, and an import whose corpus brings one PC back with a new
    // uop count (a record exception).
    const std::string path = tmpPath("t2_golden.pcbptrc2");
    std::string rendered;
    const auto walk =
        walkProgram(buildProgram(workloadByName("mm.mpeg")), 20000);
    for (const std::uint32_t rpb : {trace2fmt::defaultBlockRecords, 64u}) {
        saveTrace2(path, walk, rpb);
        rendered += digestLine(
            "record-mm.mpeg-20000-rpb" + std::to_string(rpb), path);
    }

    const std::string in = tmpPath("t2_golden.txt");
    {
        std::ofstream f(in, std::ios::binary);
        f << "# pc outcome uops\n";
        for (int i = 0; i < 3000; ++i) {
            const int site = (i * 7) % 11;
            f << "0x" << std::hex << 0x401000 + 0x24 * site << std::dec
              << (i % 3 ? " T" : " N");
            if (site % 4)
                f << ' ' << (i == 1500 ? 9 : site % 4);
            f << '\n';
        }
    }
    ASSERT_EQ(importAsciiTrace(in, path, 512), 3000u);
    rendered += digestLine("import-3000-rpb512", path);
    expectMatchesGolden(rendered, "trace2_bytes.txt");
    std::remove(in.c_str());
    std::remove(path.c_str());
}

TEST(Trace2, ReconstructionMatchesGolden)
{
    // Replay's CFG, block for block, from a trace that takes every
    // branch of the reconstruction: id holes, a block whose PC and
    // uop count change between visits (record exceptions; the last
    // visit wins), a zero uop count, a direction that never runs
    // (block 3 is never taken), one that runs once (block 9 falls
    // through only into block 12), and a block seen only as the last
    // record.
    const auto next = [](BlockId b, bool taken) -> BlockId {
        switch (b) {
          case 0:
            return taken ? 3 : 7;
          case 3:
            return taken ? 7 : 0;
          case 7:
            return taken ? 9 : 3;
          default:
            return taken ? 0 : 12;
        }
    };
    Rng rng(1212);
    std::vector<CommittedBranch> records;
    BlockId b = 0;
    for (int i = 0; i < 400 || b != 9; ++i) {
        CommittedBranch r;
        r.block = b;
        r.pc = 0x400000 + 16 * Addr(b) + (b == 7 ? 4 * (i % 3) : 0);
        r.numUops = b == 9 ? 0 : b == 7 ? 2 + i % 5 : 3;
        r.taken = b == 9 || (b != 3 && rng.nextBool(0.5));
        records.push_back(r);
        b = next(b, r.taken);
    }
    records.push_back({9, 0x400090, false, 0});
    records.push_back({12, 0x4000c0, true, 5});

    const std::string path = tmpPath("t2_reconstruct.pcbptrc2");
    saveTrace2(path, records, 64);
    const Program p = reconstructProgramFromTrace(path, "golden");
    std::string rendered;
    for (BlockId id = 0; id < p.numBlocks(); ++id) {
        const BasicBlock &blk = p.block(id);
        const BranchBehavior &bh = p.behavior(id);
        char line[200];
        std::snprintf(line, sizeof(line),
                      "%u pc=%#" PRIx64 " uops=%u taken=%u fall=%u "
                      "kind=%d p=%.17g seed=%" PRIu64 "\n",
                      id, std::uint64_t(blk.branchPc), blk.numUops,
                      blk.takenTarget, blk.fallthroughTarget,
                      int(bh.kind), bh.p0, bh.seed);
        rendered += line;
    }
    expectMatchesGolden(rendered, "trace2_reconstruct.txt");
    std::remove(path.c_str());
}

// ---------------------------------------------------- flat id table

/** Insert @p keys in order (value: the insertion index), checking
 *  every step and the final lookups against a std::map. */
void
expectTableMatchesMap(const char *what,
                      const std::vector<std::uint64_t> &keys)
{
    SCOPED_TRACE(what);
    FlatIdTable<std::uint64_t> table;
    std::map<std::uint64_t, std::uint64_t> ref;
    for (std::size_t i = 0; i < keys.size(); ++i) {
        const std::uint64_t got = table.emplace(keys[i], i);
        ASSERT_EQ(got, ref.emplace(keys[i], i).first->second)
            << "key " << keys[i];
        ASSERT_EQ(table.size(), ref.size()) << "key " << keys[i];
    }
    for (const auto &[key, value] : ref) {
        const std::uint64_t *v = table.find(key);
        ASSERT_NE(v, nullptr) << "key " << key;
        EXPECT_EQ(*v, value) << "key " << key;
        for (const std::uint64_t near : {key - 1, key + 1}) {
            if (!ref.count(near)) {
                EXPECT_EQ(table.find(near), nullptr) << "key " << near;
            }
        }
    }
    std::map<std::uint64_t, std::uint64_t> visited;
    table.forEach([&](std::uint64_t key, std::uint64_t value) {
        EXPECT_TRUE(visited.emplace(key, value).second) << "key " << key;
    });
    EXPECT_EQ(visited, ref);
}

TEST(FlatIdTable, MatchesStdMapOnDenseSparseAndCollidingKeys)
{
    const FlatIdTable<std::uint64_t> empty;
    EXPECT_EQ(empty.size(), 0u);
    EXPECT_EQ(empty.find(0), nullptr);

    Rng rng(808);
    const auto shuffled = [&](std::vector<std::uint64_t> keys) {
        for (std::size_t i = keys.size(); i > 1; --i)
            std::swap(keys[i - 1], keys[std::size_t(rng.nextBelow(i))]);
        return keys;
    };
    const std::uint64_t all_ones = ~std::uint64_t(0);

    // No key is reserved: 0, the largest block id and 2^64 - 1 are
    // ordinary keys, repeats included.
    expectTableMatchesMap(
        "extremes",
        {0, 0xffffffffull, all_ones, 0, 1, all_ones - 1, 0xffffffffull,
         all_ones});

    // Dense ids, as a CFG walk numbers its blocks, each seen twice,
    // grow the table from 16 slots past 8192.
    std::vector<std::uint64_t> dense;
    for (std::uint64_t i = 0; i < 5000; ++i) {
        dense.push_back(i);
        dense.push_back(i);
    }
    expectTableMatchesMap("dense", shuffled(dense));

    // Sparse 64-bit keys, as real-program PCs are, with repeats.
    std::vector<std::uint64_t> sparse;
    for (int i = 0; i < 4000; ++i)
        sparse.push_back(i % 5 == 4 ? sparse[std::size_t(
                                          rng.nextBelow(sparse.size()))]
                                    : rng.next());
    expectTableMatchesMap("sparse", sparse);

    // Colliding keys: key x hashMultiplier is small for every key
    // below, so all of them hash to slot 0 at any capacity and each
    // insert probes past every earlier one.
    std::uint64_t inverse = FlatIdTable<int>::hashMultiplier;
    for (int i = 0; i < 5; ++i)
        inverse *= 2 - FlatIdTable<int>::hashMultiplier * inverse;
    ASSERT_EQ(inverse * FlatIdTable<int>::hashMultiplier, 1u);
    std::vector<std::uint64_t> colliding;
    for (std::uint64_t i = 0; i < 1500; ++i)
        colliding.push_back(i * inverse);
    colliding.push_back(0);
    colliding.push_back(7 * inverse);
    expectTableMatchesMap("colliding", shuffled(colliding));
}

// ----------------------------------------------------- info schema

TEST(Trace2, InfoRenderingIsDeterministicAndSchemaStable)
{
    const std::string v2 = tmpPath("t2_info.pcbptrc2");
    Program p = generateProgram(traceRecipe(61));
    saveTrace2(v2, walkProgram(p, 5000), trace2fmt::defaultBlockRecords);

    const std::string a = renderTraceInfo(v2);
    EXPECT_EQ(a, renderTraceInfo(v2)) << "info must be deterministic";

    // Schema: the exact key sequence `pcbp_trace info` promises, as
    // pinned by the golden the CI trace-smoke job also checks the
    // CLI's output against.
    const auto firstWords = [](std::istream &is) {
        std::vector<std::string> words;
        std::string line;
        while (std::getline(is, line))
            words.push_back(line.substr(0, line.find(' ')));
        return words;
    };
    std::istringstream body(a);
    std::ifstream golden(PCBP_TEST_GOLDEN_DIR "/trace_info_keys.txt");
    ASSERT_TRUE(golden) << "missing tests/golden/trace_info_keys.txt";
    EXPECT_EQ(firstWords(body), firstWords(golden));

    // No path leakage: moving the file cannot change the output.
    const std::string moved = tmpPath("t2_info_moved.bin");
    ASSERT_EQ(std::rename(v2.c_str(), moved.c_str()), 0);
    EXPECT_EQ(renderTraceInfo(moved), a);
    std::remove(moved.c_str());
}

} // namespace
} // namespace pcbp
