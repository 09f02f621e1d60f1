/**
 * @file
 * PCBPTRC2 format-level property tests (DESIGN.md §13).
 *
 * The compressed indexed trace store earns its place only if it is
 * *invisible* to everything downstream:
 *
 * - lossless: random programs and adversarial random record payloads
 *   (dictionary exceptions included) survive PCBPTRC1 -> PCBPTRC2 ->
 *   PCBPTRC1 round trips, with the back-conversion byte-identical to
 *   the original file — also when a file converts in place;
 * - stream-equivalent: CompressedTraceStream yields the exact record
 *   sequence of the recorded walk, directly and through forks, and
 *   engine replay over it equals replay of the same records held in
 *   memory (exporting trace.store.* host stats);
 * - the only replay format: a PCBPTRC1 file registered as a
 *   `trace:` workload or opened as a stream fails with the command
 *   that converts it;
 * - compact: >= 4x smaller than PCBPTRC1 on a recorded CFG-walk
 *   trace (the full 10M-branch criterion runs in test_longrun.cc);
 * - identified: `pcbp_trace info` output is deterministic and its
 *   schema is pinned by a golden.
 */

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "obs/stat_registry.hh"
#include "sim/committed_stream.hh"
#include "sim/driver.hh"
#include "workload/generator.hh"
#include "workload/trace.hh"
#include "workload/trace2.hh"

namespace pcbp
{
namespace
{

std::string
tmpPath(const char *stem)
{
    return testing::TempDir() + stem;
}

std::vector<unsigned char>
slurpBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<unsigned char>(
        std::istreambuf_iterator<char>(in),
        std::istreambuf_iterator<char>());
}

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

TEST(Trace2, RandomProgramWalkRoundTripsThroughConversion)
{
    const std::string v1 = tmpPath("t2_walk.pcbptrc");
    const std::string v2 = tmpPath("t2_walk.pcbptrc2");
    const std::string back = tmpPath("t2_walk_back.pcbptrc");

    for (const std::uint64_t seed : {3u, 77u}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Program p = generateProgram(traceRecipe(seed));
        const auto walk = walkProgram(p, 20000);
        saveTrace(v1, walk);

        EXPECT_EQ(convertTraceFile(v1, v2, true), walk.size());
        EXPECT_TRUE(isTrace2File(v2));
        EXPECT_FALSE(isTrace2File(v1));
        EXPECT_EQ(traceFileCount(v2), walk.size());

        // The generic loader dispatches on the magic: both files
        // deliver the identical record sequence.
        expectSameRecords(loadTrace(v2), walk);

        // Back-conversion is byte-identical, not merely equivalent.
        EXPECT_EQ(convertTraceFile(v2, back, false), walk.size());
        EXPECT_EQ(slurpBytes(back), slurpBytes(v1));

        // A CFG walk revisits each static branch with fixed pc/uops,
        // so the dictionary covers every record: expect real
        // compression, not just parity (>= 4x is the PR criterion).
        const auto info = Trace2Reader::open(v2)->info();
        const std::uint64_t v1_bytes =
            tracefmt::headerBytes + walk.size() * tracefmt::recordBytes;
        EXPECT_GE(double(v1_bytes) / double(info.fileBytes), 4.0);
    }
    std::remove(v1.c_str());
    std::remove(v2.c_str());
    std::remove(back.c_str());
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
            expectSameRecords(loadTrace(v2), records);

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
    {
        Trace2Writer w(v2);
        w.finish();
    }
    EXPECT_TRUE(isTrace2File(v2));
    EXPECT_EQ(traceFileCount(v2), 0u);
    EXPECT_TRUE(loadTrace(v2).empty());
    EXPECT_EQ(Trace2Reader::open(v2)->numBlocks(), 0u);
    std::remove(v2.c_str());
}

TEST(Trace2, SummariesAgreeAcrossFormats)
{
    const std::string v1 = tmpPath("t2_sum.pcbptrc");
    const std::string v2 = tmpPath("t2_sum.pcbptrc2");
    Program p = generateProgram(traceRecipe(11));
    saveTrace(v1, walkProgram(p, 9000));
    convertTraceFile(v1, v2, true);

    const TraceSummary a = summarizeTraceFile(v1);
    const TraceSummary b = summarizeTraceFile(v2);
    EXPECT_EQ(a.branches, b.branches);
    EXPECT_EQ(a.uops, b.uops);
    EXPECT_EQ(a.takenBranches, b.takenBranches);
    EXPECT_EQ(a.staticBranches, b.staticBranches);
    std::remove(v1.c_str());
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
    saveTrace2(v2, walkProgram(src, 8000), 1024);

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
    PrecomputedStream memory(loadTrace(v2));
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

// ------------------------------------------ PCBPTRC1 is interchange

TEST(Trace2, InPlaceConversionRoundTripsByteIdentical)
{
    const std::string path = tmpPath("t2_inplace.pcbptrc2");
    Program p = generateProgram(traceRecipe(71));
    const auto walk = walkProgram(p, 7000);
    saveTrace2(path, walk, 256);
    const auto original = slurpBytes(path);

    // OUT == IN both ways: each direction reads its input in full
    // before the output replaces it.
    EXPECT_EQ(convertTraceFile(path, path, false), walk.size());
    EXPECT_FALSE(isTrace2File(path));
    expectSameRecords(loadTrace(path), walk);
    EXPECT_EQ(convertTraceFile(path, path, true, 256), walk.size());
    EXPECT_EQ(slurpBytes(path), original);

    // OUT a symlink to IN: the link is replaced by the output and
    // the file it pointed at keeps its bytes.
    const std::string link = tmpPath("t2_inplace_link.pcbptrc");
    std::remove(link.c_str());
    std::filesystem::create_symlink(path, link);
    EXPECT_EQ(convertTraceFile(link, link, false), walk.size());
    EXPECT_EQ(slurpBytes(path), original);
    expectSameRecords(loadTrace(link), walk);
    std::remove(link.c_str());
    std::remove(path.c_str());
}

TEST(Trace2, CorruptInputLeavesConversionOutputUntouched)
{
    const std::string in = tmpPath("t2_corrupt_in.pcbptrc2");
    const std::string out = tmpPath("t2_corrupt_out.pcbptrc");
    Program p = generateProgram(traceRecipe(73));
    saveTrace2(in, walkProgram(p, 3000), 256);
    saveTrace(out, walkProgram(p, 100));
    const auto before = slurpBytes(out);

    // Tear the final block's payload: the header, footer and the
    // earlier blocks still validate, so conversion has already
    // streamed records out when the decode fails.
    auto bytes = slurpBytes(in);
    const std::uint64_t payload_end =
        bytes.size() - Trace2Reader::open(in)->info().indexBytes;
    bytes[std::size_t(payload_end - 1)] ^= 0x80;
    {
        std::ofstream f(in, std::ios::binary | std::ios::trunc);
        f.write(reinterpret_cast<const char *>(bytes.data()),
                std::streamsize(bytes.size()));
    }
    EXPECT_EXIT(convertTraceFile(in, out, false),
                testing::ExitedWithCode(1), "block");
    EXPECT_EQ(slurpBytes(out), before);

    // Nothing is left behind beside OUT either.
    const std::filesystem::path outPath(out);
    for (const auto &e :
         std::filesystem::directory_iterator(outPath.parent_path())) {
        const std::string name = e.path().filename().string();
        EXPECT_NE(name.rfind(outPath.filename().string() + ".tmp", 0),
                  0u)
            << "leftover temporary " << name;
    }
    std::remove(in.c_str());
    std::remove(out.c_str());
}

TEST(Trace2, V1FileFailsReplayNamingTheConvertCommand)
{
    const std::string v1 = tmpPath("t2_v1_replay.pcbptrc");
    const std::string empty = tmpPath("t2_v1_empty.pcbptrc");
    Program p = generateProgram(traceRecipe(79));
    saveTrace(v1, walkProgram(p, 2000));
    saveTrace(empty, {});

    for (const std::string &path : {v1, empty}) {
        SCOPED_TRACE(path);
        std::string error;
        EXPECT_FALSE(Trace2Reader::tryOpen(path, error));
        EXPECT_NE(error.find("pcbp_trace convert " + path + " " + path),
                  std::string::npos)
            << error;
        EXPECT_EXIT(workloadByName("trace:" + path),
                    testing::ExitedWithCode(1), "pcbp_trace convert");
        EXPECT_EXIT(openTraceStream(path), testing::ExitedWithCode(1),
                    "pcbp_trace convert");
    }
    std::remove(v1.c_str());
    std::remove(empty.c_str());
}

// ----------------------------------------------------- info schema

TEST(Trace2, InfoRenderingIsDeterministicAndSchemaStable)
{
    const std::string v1 = tmpPath("t2_info.pcbptrc");
    const std::string v2 = tmpPath("t2_info.pcbptrc2");
    Program p = generateProgram(traceRecipe(61));
    saveTrace(v1, walkProgram(p, 5000));
    convertTraceFile(v1, v2, true);

    const std::string a = renderTraceInfo(v2);
    EXPECT_EQ(a, renderTraceInfo(v2)) << "info must be deterministic";

    // Schema: the exact key sequence `pcbp_trace info` promises (the
    // CI trace-smoke job greps the same keys from the CLI).
    const auto keysOf = [](const std::string &body) {
        std::vector<std::string> keys;
        std::istringstream is(body);
        std::string line;
        while (std::getline(is, line))
            keys.push_back(line.substr(0, line.find(' ')));
        return keys;
    };
    const std::vector<std::string> v2Keys = {
        "format",      "version",          "records",
        "records_per_block", "blocks",     "static_branches",
        "file_bytes",  "index_bytes",      "bytes_per_record",
        "v1_bytes",    "ratio_vs_v1",
    };
    EXPECT_EQ(keysOf(a), v2Keys);
    const std::vector<std::string> v1Keys = {
        "format", "records", "file_bytes", "bytes_per_record"};
    EXPECT_EQ(keysOf(renderTraceInfo(v1)), v1Keys);

    // No path leakage: moving the file cannot change the output.
    const std::string moved = tmpPath("t2_info_moved.bin");
    ASSERT_EQ(std::rename(v2.c_str(), moved.c_str()), 0);
    EXPECT_EQ(renderTraceInfo(moved), a);

    std::remove(v1.c_str());
    std::remove(moved.c_str());
}

} // namespace
} // namespace pcbp
