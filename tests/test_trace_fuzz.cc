/**
 * @file
 * Property/fuzz tests for the PCBPTRC2 trace parser, CFG
 * reconstruction over arbitrary records, and the ASCII importer.
 *
 * Properties:
 * - malformed input — truncation at any boundary, corrupted magic or
 *   version, a corrupt footer index, mid-block torn writes, a varint
 *   whose 10th byte carries more than bit 63, bit flips anywhere in
 *   the file, random garbage — is a graceful error
 *   through the try layer (tryScanTraceFile over Trace2Reader) and a
 *   clean exit(1) through the fatal wrappers, never a crash or
 *   out-of-bounds read. The reader mmaps the file, so every decode
 *   bound is exercised directly against the raw mapping. The
 *   ASan+UBSan CI job runs this file in the fast set, so any parser
 *   overread trips the sanitizers here;
 * - records that decode, however arbitrary, either reconstruct a
 *   replay CFG or exit(1) cleanly;
 * - the CBP-style ASCII importer reads a line of any length as one
 *   line, rejects — naming the line — PCs it would otherwise wrap or
 *   clamp, and replaces its output only once the input is read in
 *   full.
 */

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "support.hh"
#include "workload/trace.hh"
#include "workload/trace2.hh"

namespace pcbp
{
namespace
{

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

/** Scan via the non-fatal entry point, counting records. */
bool
tryScan(const std::string &path, std::string &error,
        std::uint64_t *records = nullptr)
{
    std::uint64_t n = 0;
    const bool ok = tryScanTraceFile(
        path, [&](const CommittedBranch &) { ++n; }, error);
    if (records)
        *records = n;
    return ok;
}

/** Write @p trace as a PCBPTRC2 file; returns its bytes. */
std::vector<unsigned char>
writeTrace2(const std::string &path,
            const std::vector<CommittedBranch> &trace,
            std::uint32_t records_per_block)
{
    Trace2Writer w(path, records_per_block);
    for (const auto &r : trace)
        w.append(r);
    w.finish();
    return slurpBytes(path);
}

/** A valid multi-block file from adversarial random records. */
std::vector<unsigned char>
buildTrace2(const std::string &path, Rng &rng, std::size_t n,
            std::uint32_t records_per_block)
{
    return writeTrace2(path, randomTrace(rng, n), records_per_block);
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
        EXPECT_FALSE(tryScan(cut, error)) << "cut at " << n;
        EXPECT_FALSE(error.empty()) << "cut at " << n;
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
        EXPECT_FALSE(tryScan(path, error)) << "magic byte " << i;
        EXPECT_NE(error.find("bad magic"), std::string::npos);
    }

    for (std::uint32_t v : {0u, 2u, 0xffffffffu}) {
        auto mut = bytes;
        for (int b = 0; b < 4; ++b)
            mut[8 + b] = (v >> (8 * b)) & 0xff;
        writeBytes(path, mut);
        std::string error;
        EXPECT_FALSE(tryScan(path, error)) << "version " << v;
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
        EXPECT_FALSE(tryScan(path, error)) << "rpb " << rpb;
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
        EXPECT_FALSE(tryScan(path, error));
        EXPECT_NE(error.find("end magic"), std::string::npos);
    }
    {
        auto mut = bytes;
        mut[size - 16] ^= 0x01; // count echo
        writeBytes(path, mut);
        std::string error;
        EXPECT_FALSE(tryScan(path, error));
        EXPECT_NE(error.find("echo"), std::string::npos);
    }
    {
        auto mut = bytes;
        mut[size - 24] = 0xff; // last block offset: out of range
        mut[size - 23] = 0xff;
        writeBytes(path, mut);
        std::string error;
        EXPECT_FALSE(tryScan(path, error));
        EXPECT_NE(error.find("block index"), std::string::npos);
    }
    {
        auto mut = bytes;
        mut[size - 24] = 40; // last offset == first: not increasing
        for (std::size_t b = 1; b < 8; ++b)
            mut[size - 24 + b] = 0;
        writeBytes(path, mut);
        std::string error;
        EXPECT_FALSE(tryScan(path, error));
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
            EXPECT_FALSE(tryScan(path, error)) << "indexOffset " << off;
            EXPECT_FALSE(error.empty());
        }
    }
    {
        // Record count inflated past what the blocks hold.
        auto mut = bytes;
        mut[16 + 3] = 0xff;
        writeBytes(path, mut);
        std::string error;
        EXPECT_FALSE(tryScan(path, error));
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
        EXPECT_FALSE(tryScan(path, error)) << "payloadBytes " << v;
        EXPECT_FALSE(error.empty());
    }
    {
        auto mut = bytes;
        mut[44] ^= 0x01; // nRecords no longer matches the index
        writeBytes(path, mut);
        std::string error;
        EXPECT_FALSE(tryScan(path, error));
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
        EXPECT_FALSE(tryScan(path, error, &records));
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
        if (tryScan(bad, error, &records)) {
            EXPECT_EQ(records, count) << "flip at byte " << byte;
        } else {
            EXPECT_FALSE(error.empty()) << "flip at byte " << byte;
        }
    }
    std::remove(good.c_str());
    std::remove(bad.c_str());
}

TEST(Trace2Fuzz, PayloadFlipsStillReconstructOrErrorCleanly)
{
    const std::string good = tmpPath("fuzz2_recon_src.pcbptrc2");
    const std::string bad = tmpPath("fuzz2_recon_mut.pcbptrc2");
    // A 7-block cycle whose successors do not depend on the outcome,
    // so the unflipped trace reconstructs; small block ids keep most
    // flips under the reconstruction limit (gated below).
    std::vector<CommittedBranch> trace;
    for (int i = 0; i < 50; ++i) {
        CommittedBranch r;
        r.block = BlockId(i % 7);
        r.pc = 0x400000 + (r.block << 4);
        r.taken = (i % 3) == 0;
        r.numUops = 4;
        trace.push_back(r);
    }
    const auto bytes = writeTrace2(good, trace, 16);
    EXPECT_EQ(reconstructProgramFromTrace(good, "good").numBlocks(), 7u);
    const std::uint64_t payload_end =
        bytes.size() - Trace2Reader::open(good)->info().indexBytes;

    // Flips anywhere in the block region: whatever the records decode
    // to, reconstruction builds or exits 1 — on a corrupt block, a
    // block id past the limit, or a branch direction that gains a
    // second successor — and never does anything else.
    const auto buildsOrExits1 = [](int status) {
        return WIFEXITED(status) && WEXITSTATUS(status) <= 1;
    };
    Rng rng(555);
    int decoded = 0;
    for (int iter = 0; iter < 100; ++iter) {
        auto mut = bytes;
        const std::size_t byte =
            trace2fmt::headerBytes +
            std::size_t(rng.nextBelow(payload_end - trace2fmt::headerBytes));
        mut[byte] ^= (1u << rng.nextBelow(8));
        writeBytes(bad, mut);

        std::string error;
        decoded += tryScan(bad, error);
        EXPECT_EXIT(
            {
                reconstructProgramFromTrace(bad, "mut");
                std::fputs("built\n", stderr);
                std::exit(0);
            },
            buildsOrExits1, "built|fatal")
            << "flip at byte " << byte;
    }
    EXPECT_GT(decoded, 0);

    // A block id past the limit is a clean fatal, not UB.
    trace[0].block = BlockId(1) << 24;
    writeTrace2(bad, trace, 16);
    EXPECT_EXIT(reconstructProgramFromTrace(bad, "huge"),
                testing::ExitedWithCode(1), "reconstruction limit");
    std::remove(good.c_str());
    std::remove(bad.c_str());
}

// ------------------------------------------------- over-long varints

void
putLe(std::vector<unsigned char> &out, std::uint64_t v, int bytes)
{
    for (int i = 0; i < bytes; ++i)
        out.push_back(static_cast<unsigned char>(v >> (8 * i)));
}

/**
 * A one-record PCBPTRC2 file assembled byte by byte, so a test can
 * plant encodings the writer never emits: @p record is the record's
 * varints (after the outcome byte, a not-taken bit), @p entry the
 * varints of the one dictionary entry.
 */
std::vector<unsigned char>
oneRecordTrace(const std::vector<unsigned char> &record,
               const std::vector<unsigned char> &entry)
{
    std::vector<unsigned char> f(trace2fmt::magic, trace2fmt::magic + 8);
    putLe(f, trace2fmt::version, 4);
    putLe(f, 1, 4); // records per block
    putLe(f, 1, 8); // record count
    putLe(f, trace2fmt::headerBytes + 8 + 1 + record.size(), 8);
    putLe(f, 0, 8); // reserved
    putLe(f, 1 + record.size(), 4); // payload bytes
    putLe(f, 1, 4);                 // records in the block
    f.push_back(0);                 // outcome bitstream
    f.insert(f.end(), record.begin(), record.end());
    f.insert(f.end(), trace2fmt::indexMagic, trace2fmt::indexMagic + 8);
    putLe(f, 1, 4); // dictionary entries
    f.insert(f.end(), entry.begin(), entry.end());
    putLe(f, 1, 4); // blocks
    putLe(f, trace2fmt::headerBytes, 8);
    putLe(f, 1, 8); // record-count echo
    f.insert(f.end(), trace2fmt::endMagic, trace2fmt::endMagic + 8);
    return f;
}

/** A 10-byte varint: nine continuation bytes of zero bits, then
 *  @p last, which a u64 leaves room for only bit 63 in. */
std::vector<unsigned char>
tenByteVarint(unsigned char last)
{
    std::vector<unsigned char> v(9, 0x80);
    v.push_back(last);
    return v;
}

std::vector<unsigned char>
concat(std::initializer_list<std::vector<unsigned char>> parts)
{
    std::vector<unsigned char> out;
    for (const auto &p : parts)
        out.insert(out.end(), p.begin(), p.end());
    return out;
}

/** The records of @p path, or nothing with @p error set. */
std::vector<CommittedBranch>
scanAll(const std::string &path, std::string &error)
{
    std::vector<CommittedBranch> records;
    if (!tryScanTraceFile(
            path, [&](const CommittedBranch &r) { records.push_back(r); },
            error))
        records.clear();
    return records;
}

TEST(Trace2Fuzz, OverlongDictionaryPcIsRefused)
{
    const std::string path = tmpPath("fuzz2_long_dict.pcbptrc2");
    // Entry: id 0, PC as a 10-byte varint, 1 uop; the record uses it.
    const auto file = [](unsigned char last) {
        return oneRecordTrace({0x00},
                              concat({{0x00}, tenByteVarint(last), {0x01}}));
    };
    writeBytes(path, file(0x01));
    std::string error;
    const auto records = scanAll(path, error);
    ASSERT_EQ(records.size(), 1u) << error;
    EXPECT_EQ(records[0].pc, Addr(1) << 63);

    // 0x7f would decode to the same PC: its high bits have nowhere to
    // go, and a reader that kept only bit 63 would accept the file.
    writeBytes(path, file(0x7f));
    EXPECT_TRUE(scanAll(path, error).empty());
    EXPECT_NE(error.find("static-branch dictionary"), std::string::npos)
        << error;
    std::remove(path.c_str());
}

TEST(Trace2Fuzz, OverlongExceptionPcIsRefused)
{
    const std::string path = tmpPath("fuzz2_long_exc.pcbptrc2");
    // Record: delta 0 with the exception flag, PC as a 10-byte
    // varint, 1 uop.
    const auto file = [](unsigned char last) {
        return oneRecordTrace(concat({{0x01}, tenByteVarint(last), {0x01}}),
                              {0x00, 0x10, 0x01});
    };
    writeBytes(path, file(0x01));
    std::string error;
    const auto records = scanAll(path, error);
    ASSERT_EQ(records.size(), 1u) << error;
    EXPECT_EQ(records[0].pc, Addr(1) << 63);

    writeBytes(path, file(0x7f));
    EXPECT_TRUE(scanAll(path, error).empty());
    EXPECT_NE(error.find("block 0 has a corrupt record exception"),
              std::string::npos)
        << error;
    std::remove(path.c_str());
}

TEST(Trace2Fuzz, OverlongBlockIdDeltaIsRefused)
{
    const std::string path = tmpPath("fuzz2_long_delta.pcbptrc2");
    // Record: a zero delta, no exception, padded to 10 bytes.
    const auto file = [](unsigned char last) {
        return oneRecordTrace(tenByteVarint(last), {0x00, 0x10, 0x01});
    };
    writeBytes(path, file(0x00));
    std::string error;
    const auto records = scanAll(path, error);
    ASSERT_EQ(records.size(), 1u) << error;
    EXPECT_EQ(records[0].block, 0u);
    EXPECT_EQ(records[0].pc, 0x10u);

    // 0x7e keeps no bit at all past the shift: a reader that dropped
    // the rest would decode block 0 again.
    writeBytes(path, file(0x7e));
    EXPECT_TRUE(scanAll(path, error).empty());
    EXPECT_NE(error.find("block 0 is truncated mid-record"),
              std::string::npos)
        << error;
    std::remove(path.c_str());
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
        // Half the corpus wears a genuine PCBPTRC2 magic, so the parse
        // gets past the magic check into header/footer validation.
        if (iter % 2 == 0 && bytes.size() >= 8)
            std::memcpy(bytes.data(), trace2fmt::magic, 8);
        writeBytes(path, bytes);
        std::string error;
        EXPECT_FALSE(tryScan(path, error)) << "iter " << iter;
        EXPECT_FALSE(error.empty());
    }
    std::remove(path.c_str());
}

TEST(Trace2Fuzz, MissingFileIsAGracefulError)
{
    std::string error;
    EXPECT_FALSE(
        tryScan(tmpPath("fuzz2_does_not_exist.pcbptrc2"), error));
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
        std::vector<CommittedBranch> records;
        scanTraceFile(out, [&](const CommittedBranch &r) {
            records.push_back(r);
        });
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

TEST(AsciiImportFuzz, BadLineAfterFullBlocksLeavesOutputUntouched)
{
    const std::string in = tmpPath("ascii_late_bad.txt");
    const std::string out = tmpPath("ascii_late_bad.pcbptrc2");
    writeLines(in, {"0x400000 T 3", "0x400040 N 2"});
    ASSERT_EQ(importAsciiTrace(in, out), 2u);
    const auto before = slurpBytes(out);

    // Three full 4-record blocks stream into the temporary file before
    // line 13 fails.
    std::vector<std::string> lines;
    for (int i = 0; i < 12; ++i)
        lines.push_back(i % 2 ? "0x400040 N 2" : "0x400000 T 3");
    lines.push_back("0x400080 X");
    writeLines(in, lines);
    EXPECT_EXIT(importAsciiTrace(in, out, 4), testing::ExitedWithCode(1),
                "line 13: bad outcome");
    EXPECT_EQ(slurpBytes(out), before);

    // Nothing is left behind beside OUT either.
    const std::filesystem::path outPath(out);
    for (const auto &e :
         std::filesystem::directory_iterator(outPath.parent_path())) {
        const std::string name = e.path().filename().string();
        EXPECT_NE(name.rfind(outPath.filename().string() + ".tmp", 0), 0u)
            << "leftover temporary " << name;
    }
    std::remove(in.c_str());
    std::remove(out.c_str());
}

} // namespace
} // namespace pcbp
