/**
 * @file
 * Property/fuzz tests for the PCBPTRC1 and PCBPTRC2 trace parsers.
 *
 * Properties:
 * - write -> read round-trips exactly, for randomized record
 *   payloads across the whole value range (including extremes);
 * - malformed input — truncation at any boundary, corrupted magic or
 *   version, a corrupt footer index, mid-block torn writes, bit
 *   flips anywhere in the file — is a graceful error through the
 *   try* entry points (and a clean exit(1) through the fatal
 *   wrappers), never a crash or out-of-bounds read. The PCBPTRC2
 *   reader mmaps the file, so every decode bound is exercised
 *   directly against the raw mapping. The ASan+UBSan CI job runs
 *   this file in the fast set, so any parser overread trips the
 *   sanitizers here;
 * - the CBP-style ASCII importer reads a line of any length as one
 *   line, and rejects — naming the line — PCs it would otherwise
 *   wrap or clamp.
 */

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hh"
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

std::vector<CommittedBranch>
randomTrace(Rng &rng, std::size_t n)
{
    std::vector<CommittedBranch> t;
    t.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        CommittedBranch r;
        // Mix extremes in with ordinary values.
        switch (rng.nextBelow(8)) {
          case 0:
            r.block = 0;
            break;
          case 1:
            r.block = 0xffffffffu;
            break;
          default:
            r.block = BlockId(rng.nextBelow(1u << 20));
        }
        r.pc = rng.next();
        r.taken = rng.nextBool(0.5);
        r.numUops = rng.nextBelow(4) == 0
                        ? 0xffffffffu
                        : std::uint32_t(rng.nextBelow(64));
        t.push_back(r);
    }
    return t;
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
writeBytes(const std::string &path,
           const std::vector<unsigned char> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              std::streamsize(bytes.size()));
}

/** Scan via the non-fatal entry point, discarding records. */
bool
tryScan(const std::string &path, std::string &error)
{
    return tryScanTraceFile(
        path, [](const CommittedBranch &) {}, error);
}

// -------------------------------------------------------- round trip

TEST(TraceFuzz, RoundTripRandomTraces)
{
    const std::string path = tmpPath("fuzz_roundtrip.pcbptrc");
    Rng rng(2024);
    for (int iter = 0; iter < 10; ++iter) {
        const auto trace =
            randomTrace(rng, 1 + std::size_t(rng.nextBelow(500)));
        saveTrace(path, trace);

        EXPECT_EQ(traceFileCount(path), trace.size());
        const auto back = loadTrace(path);
        ASSERT_EQ(back.size(), trace.size());
        for (std::size_t i = 0; i < trace.size(); ++i) {
            EXPECT_EQ(back[i].block, trace[i].block);
            EXPECT_EQ(back[i].pc, trace[i].pc);
            EXPECT_EQ(back[i].taken, trace[i].taken);
            EXPECT_EQ(back[i].numUops, trace[i].numUops);
        }
        const TraceSummary file = summarizeTraceFile(path);
        const TraceSummary mem = summarizeTrace(trace);
        EXPECT_EQ(file.branches, mem.branches);
        EXPECT_EQ(file.uops, mem.uops);
        EXPECT_EQ(file.takenBranches, mem.takenBranches);
        EXPECT_EQ(file.staticBranches, mem.staticBranches);
    }
    std::remove(path.c_str());
}

TEST(TraceFuzz, EmptyTraceRoundTrips)
{
    const std::string path = tmpPath("fuzz_empty.pcbptrc");
    saveTrace(path, {});
    EXPECT_EQ(traceFileCount(path), 0u);
    EXPECT_TRUE(loadTrace(path).empty());
    std::remove(path.c_str());
}

// -------------------------------------------------------- truncation

TEST(TraceFuzz, TruncationAtEveryBoundaryIsAGracefulError)
{
    const std::string good = tmpPath("fuzz_trunc_src.pcbptrc");
    const std::string cut = tmpPath("fuzz_trunc_cut.pcbptrc");
    Rng rng(7);
    saveTrace(good, randomTrace(rng, 40));
    const auto bytes = slurpBytes(good);
    ASSERT_EQ(bytes.size(),
              tracefmt::headerBytes + 40 * tracefmt::recordBytes);

    // Headers cut anywhere, and bodies cut mid-record and at every
    // record boundary short of the promised count, must all error.
    std::vector<std::size_t> cuts;
    for (std::size_t n = 0; n < tracefmt::headerBytes; ++n)
        cuts.push_back(n);
    Rng pick(99);
    for (int i = 0; i < 40; ++i)
        cuts.push_back(tracefmt::headerBytes +
                       std::size_t(pick.nextBelow(
                           std::uint64_t(bytes.size()) -
                           tracefmt::headerBytes)));
    for (const std::size_t n : cuts) {
        writeBytes(cut, {bytes.begin(), bytes.begin() + long(n)});
        std::string error;
        EXPECT_FALSE(tryScan(cut, error)) << "cut at " << n;
        EXPECT_FALSE(error.empty()) << "cut at " << n;
    }

    // The fatal wrapper exits cleanly (no abort, no crash).
    writeBytes(cut, {bytes.begin(), bytes.begin() + 20});
    EXPECT_EXIT(loadTrace(cut), testing::ExitedWithCode(1),
                "truncated");
    std::remove(good.c_str());
    std::remove(cut.c_str());
}

TEST(TraceFuzz, MissingFileIsAGracefulError)
{
    std::string error;
    EXPECT_FALSE(tryScan(tmpPath("fuzz_does_not_exist.pcbptrc"), error));
    EXPECT_NE(error.find("cannot open"), std::string::npos);
}

// ------------------------------------------------------ corrupt magic

TEST(TraceFuzz, CorruptMagicIsRejectedByteByByte)
{
    const std::string path = tmpPath("fuzz_magic.pcbptrc");
    Rng rng(13);
    const auto trace = randomTrace(rng, 8);
    saveTrace(path, trace);
    const auto bytes = slurpBytes(path);

    for (std::size_t i = 0; i < 8; ++i) {
        auto mut = bytes;
        mut[i] ^= 0x40;
        writeBytes(path, mut);
        std::string error;
        EXPECT_FALSE(tryScan(path, error)) << "magic byte " << i;
        EXPECT_NE(error.find("bad magic"), std::string::npos);
    }

    // Fatal wrapper: clean exit, not a crash.
    EXPECT_EXIT(traceFileCount(path), testing::ExitedWithCode(1),
                "bad magic");
    std::remove(path.c_str());
}

// ---------------------------------------------------------- bit flips

TEST(TraceFuzz, SingleBitFlipsNeverCrashTheParser)
{
    const std::string good = tmpPath("fuzz_flip_src.pcbptrc");
    const std::string bad = tmpPath("fuzz_flip_mut.pcbptrc");
    Rng rng(31337);
    const auto trace = randomTrace(rng, 64);
    saveTrace(good, trace);
    const auto bytes = slurpBytes(good);

    // Every header bit, exhaustively: magic flips must be rejected;
    // count flips must be rejected when they promise more records
    // than the file holds, and deliver exactly the (smaller) promised
    // count otherwise. Never a crash either way.
    int rejected = 0;
    for (std::size_t byte = 0; byte < tracefmt::headerBytes; ++byte) {
        for (unsigned bit = 0; bit < 8; ++bit) {
            auto mut = bytes;
            mut[byte] ^= (1u << bit);
            writeBytes(bad, mut);

            std::uint64_t records = 0;
            std::string error;
            const bool ok = tryScanTraceFile(
                bad, [&](const CommittedBranch &) { ++records; },
                error);
            if (byte < 8) {
                EXPECT_FALSE(ok) << "magic byte " << byte;
                ++rejected;
                continue;
            }
            // Count bytes: a cleared bit shrinks the promise (still
            // readable), a set bit inflates it past the file size.
            const bool grew = (bytes[byte] & (1u << bit)) == 0;
            if (grew) {
                EXPECT_FALSE(ok)
                    << "count byte " << byte << " bit " << bit;
                EXPECT_NE(error.find("truncated"), std::string::npos);
                ++rejected;
            } else {
                EXPECT_TRUE(ok) << error;
                EXPECT_LT(records, trace.size());
            }
        }
    }
    EXPECT_GT(rejected, 64);

    // Random body flips: structurally valid, every promised record
    // still delivered, no crash under the sanitizers.
    for (int iter = 0; iter < 200; ++iter) {
        auto mut = bytes;
        const std::size_t byte =
            tracefmt::headerBytes +
            std::size_t(rng.nextBelow(
                std::uint64_t(mut.size()) - tracefmt::headerBytes));
        mut[byte] ^= (1u << rng.nextBelow(8));
        writeBytes(bad, mut);

        std::uint64_t records = 0;
        std::string error;
        EXPECT_TRUE(tryScanTraceFile(
            bad, [&](const CommittedBranch &) { ++records; }, error))
            << error;
        EXPECT_EQ(records, trace.size());
    }
    std::remove(good.c_str());
    std::remove(bad.c_str());
}

TEST(TraceFuzz, PayloadFlipsStillReconstructOrErrorCleanly)
{
    const std::string good = tmpPath("fuzz_recon_src.pcbptrc");
    const std::string bad = tmpPath("fuzz_recon_mut.pcbptrc");
    Rng rng(555);
    // Small block ids so most flips stay under the reconstruction
    // limit; flips that exceed it are covered by the gate below.
    std::vector<CommittedBranch> trace;
    for (int i = 0; i < 50; ++i) {
        CommittedBranch r;
        r.block = BlockId(i % 7);
        r.pc = 0x400000 + (r.block << 4);
        r.taken = (i % 3) == 0;
        r.numUops = 4;
        trace.push_back(r);
    }
    saveTrace(good, trace);
    const auto bytes = slurpBytes(good);

    int reconstructed = 0;
    for (int iter = 0; iter < 100; ++iter) {
        auto mut = bytes;
        const std::size_t byte =
            tracefmt::headerBytes +
            std::size_t(rng.nextBelow(std::uint64_t(
                mut.size()) - tracefmt::headerBytes));
        mut[byte] ^= (1u << rng.nextBelow(8));
        writeBytes(bad, mut);

        // Gate on the reconstruction limit: beyond it the API is
        // specified to exit(1) (covered separately below).
        BlockId max_block = 0;
        std::string error;
        ASSERT_TRUE(tryScanTraceFile(
            bad,
            [&](const CommittedBranch &r) {
                max_block = std::max(max_block, r.block);
            },
            error));
        if (max_block >= (BlockId(1) << 24))
            continue;
        const Program p = reconstructProgramFromTrace(bad, "mut");
        EXPECT_GT(p.numBlocks(), 0u);
        ++reconstructed;
    }
    EXPECT_GT(reconstructed, 0);

    // A block id past the limit is a clean fatal, not UB.
    auto mut = bytes;
    mut[tracefmt::headerBytes + 3] = 0xff; // high byte of record 0's id
    writeBytes(bad, mut);
    EXPECT_EXIT(reconstructProgramFromTrace(bad, "huge"),
                testing::ExitedWithCode(1), "reconstruction limit");
    std::remove(good.c_str());
    std::remove(bad.c_str());
}

// ----------------------------------------------------- random garbage

TEST(TraceFuzz, RandomGarbageFilesAreGracefulErrors)
{
    const std::string path = tmpPath("fuzz_garbage.bin");
    Rng rng(777);
    for (int iter = 0; iter < 60; ++iter) {
        std::vector<unsigned char> bytes(
            std::size_t(rng.nextBelow(200)));
        for (auto &b : bytes)
            b = static_cast<unsigned char>(rng.nextBelow(256));
        // Never accidentally a valid header.
        if (bytes.size() >= 8 &&
            std::memcmp(bytes.data(), tracefmt::magic, 8) == 0) {
            bytes[0] ^= 0xff;
        }
        writeBytes(path, bytes);
        std::string error;
        EXPECT_FALSE(tryScan(path, error)) << "iter " << iter;
        EXPECT_FALSE(error.empty());
    }
    std::remove(path.c_str());
}

// ================================================= PCBPTRC2 (trace2)

/** Scan a v2 file via the non-fatal entry point. */
bool
tryScan2(const std::string &path, std::string &error,
         std::uint64_t *records = nullptr)
{
    std::uint64_t n = 0;
    const bool ok = tryScanTrace2File(
        path, [&](const CommittedBranch &) { ++n; }, error);
    if (records)
        *records = n;
    return ok;
}

/** A valid multi-block v2 file from adversarial random records. */
std::vector<unsigned char>
buildTrace2(const std::string &path, Rng &rng, std::size_t n,
            std::uint32_t records_per_block)
{
    const auto trace = randomTrace(rng, n);
    Trace2Writer w(path, records_per_block);
    for (const auto &r : trace)
        w.append(r);
    w.finish();
    return slurpBytes(path);
}

TEST(Trace2Fuzz, TruncationAtManyBoundariesIsAGracefulError)
{
    const std::string good = tmpPath("fuzz2_trunc_src.pcbptrc2");
    const std::string cut = tmpPath("fuzz2_trunc_cut.pcbptrc2");
    Rng rng(41);
    const auto bytes = buildTrace2(good, rng, 200, 16);

    // Every header byte, then random cuts through blocks and footer,
    // then each of the last footerMinBytes boundaries (index array,
    // count echo, end magic). A truncated file must never parse: the
    // footer lives at the end, so any cut destroys it.
    std::vector<std::size_t> cuts;
    for (std::size_t n = 0; n <= trace2fmt::headerBytes; ++n)
        cuts.push_back(n);
    Rng pick(43);
    for (int i = 0; i < 60; ++i)
        cuts.push_back(std::size_t(
            pick.nextBelow(std::uint64_t(bytes.size()))));
    for (std::size_t n = 1; n <= trace2fmt::footerMinBytes; ++n)
        cuts.push_back(bytes.size() - n);
    for (const std::size_t n : cuts) {
        writeBytes(cut, {bytes.begin(), bytes.begin() + long(n)});
        std::string error;
        EXPECT_FALSE(tryScan2(cut, error)) << "cut at " << n;
        EXPECT_FALSE(error.empty()) << "cut at " << n;
        // The generic dispatcher surfaces the same failure.
        std::string generic;
        EXPECT_FALSE(tryScan(cut, generic)) << "cut at " << n;
    }

    // The fatal wrapper exits cleanly (no abort, no crash).
    writeBytes(cut,
               {bytes.begin(), bytes.begin() + long(bytes.size() - 4)});
    EXPECT_EXIT(Trace2Reader::open(cut), testing::ExitedWithCode(1),
                "footer");
    std::remove(good.c_str());
    std::remove(cut.c_str());
}

TEST(Trace2Fuzz, CorruptMagicAndVersionAreRejected)
{
    const std::string path = tmpPath("fuzz2_magic.pcbptrc2");
    Rng rng(47);
    const auto bytes = buildTrace2(path, rng, 30, 8);

    for (std::size_t i = 0; i < 8; ++i) {
        auto mut = bytes;
        mut[i] ^= 0x40;
        writeBytes(path, mut);
        std::string error;
        EXPECT_FALSE(tryScan2(path, error)) << "magic byte " << i;
        EXPECT_NE(error.find("bad magic"), std::string::npos);
        // A corrupt v2 magic also demotes the file out of the v2
        // sniff; the v1 parser then rejects it on its own magic.
        EXPECT_FALSE(isTrace2File(path));
    }

    for (std::uint32_t v : {0u, 2u, 0xffffffffu}) {
        auto mut = bytes;
        for (int b = 0; b < 4; ++b)
            mut[8 + b] = (v >> (8 * b)) & 0xff;
        writeBytes(path, mut);
        std::string error;
        EXPECT_FALSE(tryScan2(path, error)) << "version " << v;
        EXPECT_NE(error.find("version"), std::string::npos);
    }

    // Records-per-block of 0 and of > maxBlockRecords are rejected
    // before any division or allocation uses them.
    for (std::uint32_t rpb : {0u, trace2fmt::maxBlockRecords + 1}) {
        auto mut = bytes;
        for (int b = 0; b < 4; ++b)
            mut[12 + b] = (rpb >> (8 * b)) & 0xff;
        writeBytes(path, mut);
        std::string error;
        EXPECT_FALSE(tryScan2(path, error)) << "rpb " << rpb;
        EXPECT_NE(error.find("records-per-block"), std::string::npos);
    }

    writeBytes(path, [&] {
        auto mut = bytes;
        mut[0] ^= 0x40;
        return mut;
    }());
    EXPECT_EXIT(Trace2Reader::open(path), testing::ExitedWithCode(1),
                "bad magic");
    std::remove(path.c_str());
}

TEST(Trace2Fuzz, CorruptFooterIndexIsAGracefulError)
{
    const std::string path = tmpPath("fuzz2_footer.pcbptrc2");
    Rng rng(53);
    const auto bytes = buildTrace2(path, rng, 100, 8);
    const std::size_t size = bytes.size();

    // The footer tail is fixed-layout from the end: endMagic(8),
    // count echo(8), then numBlocks u64 offsets. Corrupt each.
    {
        auto mut = bytes;
        mut[size - 1] ^= 0xff; // end magic
        writeBytes(path, mut);
        std::string error;
        EXPECT_FALSE(tryScan2(path, error));
        EXPECT_NE(error.find("end magic"), std::string::npos);
    }
    {
        auto mut = bytes;
        mut[size - 16] ^= 0x01; // count echo
        writeBytes(path, mut);
        std::string error;
        EXPECT_FALSE(tryScan2(path, error));
        EXPECT_NE(error.find("echo"), std::string::npos);
    }
    {
        auto mut = bytes;
        mut[size - 24] = 0xff; // last block offset: out of range
        mut[size - 23] = 0xff;
        writeBytes(path, mut);
        std::string error;
        EXPECT_FALSE(tryScan2(path, error));
        EXPECT_NE(error.find("block index"), std::string::npos);
    }
    {
        auto mut = bytes;
        mut[size - 24] = 40; // last offset == first: not increasing
        for (std::size_t b = 1; b < 8; ++b)
            mut[size - 24 + b] = 0;
        writeBytes(path, mut);
        std::string error;
        EXPECT_FALSE(tryScan2(path, error));
        EXPECT_NE(error.find("block index"), std::string::npos);
    }
    {
        // Index offset pointing into the weeds: rejected on bounds
        // or footer magic, never a wild read.
        for (std::uint64_t off :
             {std::uint64_t(0), std::uint64_t(size - 1),
              std::uint64_t(size) * 2, ~std::uint64_t(0)}) {
            auto mut = bytes;
            for (int b = 0; b < 8; ++b)
                mut[24 + b] = (off >> (8 * b)) & 0xff;
            writeBytes(path, mut);
            std::string error;
            EXPECT_FALSE(tryScan2(path, error)) << "indexOffset " << off;
            EXPECT_FALSE(error.empty());
        }
    }
    {
        // Record count inflated past what the blocks hold.
        auto mut = bytes;
        mut[16 + 3] = 0xff;
        writeBytes(path, mut);
        std::string error;
        EXPECT_FALSE(tryScan2(path, error));
        EXPECT_FALSE(error.empty());
    }
    std::remove(path.c_str());
}

TEST(Trace2Fuzz, MidBlockTornWritesAreDetected)
{
    const std::string path = tmpPath("fuzz2_torn.pcbptrc2");
    Rng rng(59);
    const auto bytes = buildTrace2(path, rng, 120, 16);

    // Block 0's descriptor sits right after the header:
    // payloadBytes u32 at 40, nRecords u32 at 44. A torn or
    // rewritten block shows up as one of these disagreeing with the
    // payload it frames.
    const auto payload0 = [&](std::uint32_t v) {
        auto mut = bytes;
        for (int b = 0; b < 4; ++b)
            mut[40 + b] = (v >> (8 * b)) & 0xff;
        return mut;
    };
    const std::uint32_t declared = std::uint32_t(bytes[40]) |
                                   std::uint32_t(bytes[41]) << 8 |
                                   std::uint32_t(bytes[42]) << 16 |
                                   std::uint32_t(bytes[43]) << 24;
    for (const std::uint32_t v :
         {declared + 1, declared - 1, 0u, 0xffffffffu}) {
        writeBytes(path, payload0(v));
        std::string error;
        EXPECT_FALSE(tryScan2(path, error)) << "payloadBytes " << v;
        EXPECT_FALSE(error.empty());
    }
    {
        auto mut = bytes;
        mut[44] ^= 0x01; // nRecords no longer matches the index
        writeBytes(path, mut);
        std::string error;
        EXPECT_FALSE(tryScan2(path, error));
        EXPECT_NE(error.find("record count"), std::string::npos);
    }
    {
        // Zero out the tail of block 0's payload: either a varint
        // decode error or an exact-consumption mismatch, never a
        // crash and never silently wrong-length output.
        auto mut = bytes;
        for (std::size_t i = 0; i < 6 && 48 + i < mut.size(); ++i)
            mut[40 + 8 + declared - 1 - i] = 0x80;
        writeBytes(path, mut);
        std::string error;
        std::uint64_t records = 0;
        EXPECT_FALSE(tryScan2(path, error, &records));
        EXPECT_FALSE(error.empty());
    }
    std::remove(path.c_str());
}

TEST(Trace2Fuzz, SingleBitFlipsNeverCrashTheParser)
{
    const std::string good = tmpPath("fuzz2_flip_src.pcbptrc2");
    const std::string bad = tmpPath("fuzz2_flip_mut.pcbptrc2");
    Rng rng(61);
    const auto bytes = buildTrace2(good, rng, 150, 32);
    const std::uint64_t count = 150;

    // Anywhere in the file: the parse either fails with a non-empty
    // error or delivers exactly the promised record count. (A flip
    // inside a varint's value bits decodes to different records of
    // the same framing; anything that breaks framing is caught by
    // the exact-consumption check.)
    for (int iter = 0; iter < 400; ++iter) {
        auto mut = bytes;
        const std::size_t byte =
            std::size_t(rng.nextBelow(std::uint64_t(mut.size())));
        mut[byte] ^= (1u << rng.nextBelow(8));
        writeBytes(bad, mut);

        std::string error;
        std::uint64_t records = 0;
        if (tryScan2(bad, error, &records)) {
            EXPECT_EQ(records, count) << "flip at byte " << byte;
        } else {
            EXPECT_FALSE(error.empty()) << "flip at byte " << byte;
        }
    }
    std::remove(good.c_str());
    std::remove(bad.c_str());
}

TEST(Trace2Fuzz, RandomGarbageFilesAreGracefulErrors)
{
    const std::string path = tmpPath("fuzz2_garbage.bin");
    Rng rng(67);
    for (int iter = 0; iter < 60; ++iter) {
        std::vector<unsigned char> bytes(
            std::size_t(rng.nextBelow(400)));
        for (auto &b : bytes)
            b = static_cast<unsigned char>(rng.nextBelow(256));
        // Half the corpus wears a genuine v2 magic, so the parse
        // gets past the sniff and into header/footer validation.
        if (iter % 2 == 0 && bytes.size() >= 8)
            std::memcpy(bytes.data(), trace2fmt::magic, 8);
        writeBytes(path, bytes);
        std::string error;
        EXPECT_FALSE(tryScan2(path, error)) << "iter " << iter;
        EXPECT_FALSE(error.empty());
        std::string generic;
        EXPECT_FALSE(tryScan(path, generic)) << "iter " << iter;
    }
    std::remove(path.c_str());
}

TEST(Trace2Fuzz, MissingFileIsAGracefulError)
{
    std::string error;
    EXPECT_FALSE(
        tryScan2(tmpPath("fuzz2_does_not_exist.pcbptrc2"), error));
    EXPECT_FALSE(error.empty());
}

// ------------------------------------------------------ ASCII import

/** Write @p lines as a text file, one per line. */
void
writeLines(const std::string &path, const std::vector<std::string> &lines)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    for (const std::string &l : lines)
        out << l << '\n';
}

TEST(AsciiImportFuzz, LongCommentLinesAreOneLine)
{
    const std::string in = tmpPath("ascii_long.txt");
    const std::string out = tmpPath("ascii_long.pcbptrc2");

    // A comment whose tail would parse as a branch if the line were
    // split, and one whose tail would not parse at all.
    const std::string split_tail = "0x600000 1 7";
    for (const std::string &comment :
         {"#" + std::string(267 - 1 - split_tail.size(), 'c') +
              split_tail,
          "#" + std::string(299, 'c')}) {
        SCOPED_TRACE("comment of " + std::to_string(comment.size()) +
                     " bytes");
        writeLines(in, {"0x400000 T 3", comment, "0x400040 N 2"});
        ASSERT_EQ(importAsciiTrace(in, out), 2u);
        const auto records = loadTrace(out);
        ASSERT_EQ(records.size(), 2u);
        EXPECT_EQ(records[0].block, 0u);
        EXPECT_EQ(records[0].pc, 0x400000u);
        EXPECT_TRUE(records[0].taken);
        EXPECT_EQ(records[0].numUops, 3u);
        EXPECT_EQ(records[1].block, 1u);
        EXPECT_EQ(records[1].pc, 0x400040u);
        EXPECT_FALSE(records[1].taken);
        EXPECT_EQ(records[1].numUops, 2u);
    }
    std::remove(in.c_str());
    std::remove(out.c_str());
}

TEST(AsciiImportFuzz, NegativeAndOverwidePcsAreRejected)
{
    const std::string in = tmpPath("ascii_pc.txt");
    const std::string out = tmpPath("ascii_pc.pcbptrc2");
    for (const std::string pc : {"-1", "0x1ffffffffffffffff"}) {
        SCOPED_TRACE(pc);
        std::remove(out.c_str());
        writeLines(in, {"# pcs", "0x400000 T", pc + " N"});
        EXPECT_EXIT(importAsciiTrace(in, out), testing::ExitedWithCode(1),
                    "line 3: bad PC");
        EXPECT_FALSE(std::filesystem::exists(out));
    }
    std::remove(in.c_str());
}

} // namespace
} // namespace pcbp
