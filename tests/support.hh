/**
 * @file
 * Helpers shared by the test programs: a commit-event recording tap,
 * an eager program walk, field-by-field comparisons of commit events
 * and of each simulator's stats, a host-stat reader, and files (a
 * whole-file read; the check against a committed golden; scratch
 * files under the test temp directory: plain paths and recorded
 * PCBPTRC2 traces; the records of a PCBPTRC2 file).
 */

#ifndef PCBP_TESTS_SUPPORT_HH
#define PCBP_TESTS_SUPPORT_HH

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "sim/committed_stream.hh"
#include "sim/engine.hh"
#include "sim/timing.hh"
#include "workload/generator.hh"
#include "workload/trace2.hh"

namespace pcbp
{

/** Commit-order event recording tap. */
struct RecordingSink : CommitSink
{
    std::vector<CommitEvent> events;

    void onCommit(const CommitEvent &e) override { events.push_back(e); }
};

/**
 * The first @p num_branches committed branches of a fresh walk of
 * @p program from its entry block, as one vector: a drained
 * ProgramWalkStream.
 */
inline std::vector<CommittedBranch>
walkProgram(const Program &program, std::uint64_t num_branches)
{
    ProgramWalkStream stream(program, num_branches);
    std::vector<CommittedBranch> out;
    out.reserve(num_branches);
    for (std::uint64_t i = 0; i < num_branches; ++i) {
        out.push_back(*stream.at(i));
        stream.release(i + 1);
    }
    return out;
}

/** A host scalar's value in a StatRegistry::toJson() dump (0, and a
 *  failure, when the key is absent). */
inline std::uint64_t
hostValue(const std::string &js, const std::string &key)
{
    const std::string needle = "\"" + key + "\":";
    const std::size_t at = js.find(needle);
    EXPECT_NE(at, std::string::npos) << key;
    return at == std::string::npos
               ? 0
               : std::stoull(js.substr(at + needle.size()));
}

/** The bytes of the file at @p path ("", and a failure, if it
 *  cannot be read). */
inline std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in) << "missing " << path;
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/**
 * Compare @p rendered against the committed golden tests/golden/@p
 * stem. Regenerate with PCBP_UPDATE_GOLDEN=1 (the test then reports
 * itself skipped), then review the diff and commit it.
 */
inline void
expectMatchesGolden(const std::string &rendered, const std::string &stem)
{
    const std::string path =
        std::string(PCBP_TEST_GOLDEN_DIR) + "/" + stem;
    if (std::getenv("PCBP_UPDATE_GOLDEN")) {
        std::filesystem::create_directories(
            std::filesystem::path(path).parent_path());
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        ASSERT_TRUE(out) << "cannot write " << path;
        out << rendered;
        GTEST_SKIP() << "golden updated: " << path;
    }
    ASSERT_TRUE(std::ifstream(path))
        << "missing golden " << path
        << " (run with PCBP_UPDATE_GOLDEN=1 to create)";
    EXPECT_EQ(rendered, slurp(path)) << "golden drift in " << stem;
}

/** @p stem under the test temp directory. */
inline std::string
tmpPath(const std::string &stem)
{
    return testing::TempDir() + stem;
}

/**
 * Every record of the PCBPTRC2 file @p path, in order, decoded block
 * by block through Trace2Reader::tryOpen / tryDecodeBlock. False,
 * with @p error set, on a file or block the reader refuses; @p out
 * then holds the records of the blocks before it.
 */
inline bool
tryReadTrace(const std::string &path, std::vector<CommittedBranch> &out,
             std::string &error)
{
    out.clear();
    const auto reader = Trace2Reader::tryOpen(path, error);
    if (!reader)
        return false;
    std::vector<CommittedBranch> block;
    for (std::uint64_t b = 0; b < reader->numBlocks(); ++b) {
        if (!reader->tryDecodeBlock(b, block, error))
            return false;
        out.insert(out.end(), block.begin(), block.end());
    }
    return true;
}

/** tryReadTrace for a file the test expects to read cleanly. */
inline std::vector<CommittedBranch>
readTrace(const std::string &path)
{
    std::vector<CommittedBranch> out;
    std::string error;
    EXPECT_TRUE(tryReadTrace(path, out, error)) << error;
    return out;
}

/** Two commit-event streams, equal event by event and field by field. */
inline void
expectSameEvents(const std::vector<CommitEvent> &a,
                 const std::vector<CommitEvent> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].index, b[i].index) << "at commit " << i;
        ASSERT_EQ(a[i].block, b[i].block) << "at commit " << i;
        ASSERT_EQ(a[i].pc, b[i].pc) << "at commit " << i;
        ASSERT_EQ(a[i].numUops, b[i].numUops) << "at commit " << i;
        ASSERT_EQ(a[i].btbHit, b[i].btbHit) << "at commit " << i;
        ASSERT_EQ(a[i].prophetPred, b[i].prophetPred)
            << "at commit " << i;
        ASSERT_EQ(a[i].finalPred, b[i].finalPred) << "at commit " << i;
        ASSERT_EQ(a[i].critiqueProvided, b[i].critiqueProvided)
            << "at commit " << i;
        ASSERT_EQ(a[i].criticOverrode, b[i].criticOverrode)
            << "at commit " << i;
        ASSERT_EQ(a[i].outcome, b[i].outcome) << "at commit " << i;
    }
}

/**
 * Every EngineStats field equal, the critique classes and the
 * flush-distance buckets included.
 */
inline void
expectSameStats(const EngineStats &a, const EngineStats &b)
{
    EXPECT_EQ(a.committedBranches, b.committedBranches);
    EXPECT_EQ(a.committedUops, b.committedUops);
    EXPECT_EQ(a.finalMispredicts, b.finalMispredicts);
    EXPECT_EQ(a.prophetMispredicts, b.prophetMispredicts);
    EXPECT_EQ(a.btbMisses, b.btbMisses);
    EXPECT_EQ(a.criticOverrides, b.criticOverrides);
    EXPECT_EQ(a.squashedPredictions, b.squashedPredictions);
    EXPECT_EQ(a.wrongPathBranches, b.wrongPathBranches);
    EXPECT_EQ(a.wrongPathUops, b.wrongPathUops);
    EXPECT_EQ(a.partialCritiques, b.partialCritiques);
    for (std::size_t c = 0; c < numCritiqueClasses; ++c) {
        EXPECT_EQ(a.critiques.counts[c], b.critiques.counts[c])
            << "critique class "
            << critiqueClassName(static_cast<CritiqueClass>(c));
    }
    EXPECT_EQ(a.flushDistance.count(), b.flushDistance.count());
    EXPECT_EQ(a.flushDistance.buckets(), b.flushDistance.buckets());
}

/** Every TimingStats field equal. */
inline void
expectSameStats(const TimingStats &a, const TimingStats &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.committedUops, b.committedUops);
    EXPECT_EQ(a.committedBranches, b.committedBranches);
    EXPECT_EQ(a.finalMispredicts, b.finalMispredicts);
    EXPECT_EQ(a.fetchedUops, b.fetchedUops);
    EXPECT_EQ(a.wrongPathFetchedUops, b.wrongPathFetchedUops);
    EXPECT_EQ(a.criticOverrides, b.criticOverrides);
    EXPECT_EQ(a.ftqEntriesFlushedByCritic,
              b.ftqEntriesFlushedByCritic);
    EXPECT_EQ(a.partialCritiques, b.partialCritiques);
    EXPECT_EQ(a.ftqEmptyCycles, b.ftqEmptyCycles);
}

/**
 * The CFG walk of a recipe recorded as a PCBPTRC2 file named after
 * the recipe under the test temp directory; the file is removed when
 * the recording goes out of scope.
 */
struct RecordedTrace
{
    std::string path;
    std::vector<CommittedBranch> walk;

    RecordedTrace(const WorkloadRecipe &recipe, std::uint64_t branches,
                  std::uint32_t records_per_block)
        : path(tmpPath(recipe.name + ".pcbptrc2"))
    {
        Program p = generateProgram(recipe);
        walk = walkProgram(p, branches);
        Trace2Writer w(path, records_per_block);
        for (const CommittedBranch &r : walk)
            w.append(r);
        w.finish();
    }

    RecordedTrace(const RecordedTrace &) = delete;
    RecordedTrace &operator=(const RecordedTrace &) = delete;

    ~RecordedTrace() { std::remove(path.c_str()); }

    /** The compressed backend over the file, or the in-memory walk. */
    std::unique_ptr<CommittedStream>
    stream(bool compressed) const
    {
        if (compressed)
            return openTraceStream(path);
        return std::make_unique<PrecomputedStream>(walk);
    }
};

} // namespace pcbp

#endif // PCBP_TESTS_SUPPORT_HH
