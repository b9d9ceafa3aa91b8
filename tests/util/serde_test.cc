/**
 * @file
 * Snapshot codec tests: field-level round-trips, bounds-checked
 * reads, and the seal/unseal frame's corruption guarantees. The
 * bit-flip case is exhaustive — every single bit of a sealed frame is
 * flipped in turn and every mutant must be rejected — because the
 * frame is what stands between a damaged sidecar file and a position
 * map deserialized from garbage.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <dirent.h>
#include <sys/wait.h>
#include <unistd.h>

#include "../common/scratch_dir.hh"
#include "util/serde.hh"

namespace laoram::serde {
namespace {

TEST(Serde, PrimitivesRoundTrip)
{
    Serializer s;
    s.u8(0xAB);
    s.u32(0xDEADBEEF);
    s.u64(0x0123456789ABCDEFULL);
    s.f64(-1234.5678);
    s.f64(0.0);
    const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5};
    s.blob(payload);
    s.blob({});

    Deserializer d(s.data());
    EXPECT_EQ(d.u8(), 0xAB);
    EXPECT_EQ(d.u32(), 0xDEADBEEFu);
    EXPECT_EQ(d.u64(), 0x0123456789ABCDEFULL);
    EXPECT_DOUBLE_EQ(d.f64(), -1234.5678);
    EXPECT_DOUBLE_EQ(d.f64(), 0.0);
    EXPECT_EQ(d.blob(), payload);
    EXPECT_TRUE(d.blob().empty());
    EXPECT_TRUE(d.atEnd());
}

TEST(Serde, FieldsAreLittleEndianAndFixedWidth)
{
    // The snapshot format is an on-disk contract: pin the exact byte
    // layout so a compiler/platform change cannot silently reshape
    // existing sidecar files.
    Serializer s;
    s.u32(0x01020304);
    const std::vector<std::uint8_t> expect = {0x04, 0x03, 0x02, 0x01};
    EXPECT_EQ(s.data(), expect);
}

TEST(Serde, ReadPastEndThrows)
{
    Serializer s;
    s.u32(7);
    Deserializer d(s.data());
    EXPECT_EQ(d.u32(), 7u);
    EXPECT_THROW(d.u8(), SnapshotError);
}

TEST(Serde, BlobLengthBeyondBufferThrows)
{
    // A corrupt length prefix must not allocate/copy past the end.
    Serializer s;
    s.u64(1000); // claims 1000 bytes follow
    s.u8(1);
    Deserializer d(s.data());
    EXPECT_THROW(d.blob(), SnapshotError);
}

TEST(Serde, SealUnsealRoundTrips)
{
    const std::vector<std::uint8_t> payload = {9, 8, 7, 6, 5};
    const auto frame = seal(SnapshotKind::Engine, payload);
    EXPECT_EQ(unseal(SnapshotKind::Engine, frame), payload);

    // Empty payloads are legal (e.g. a trivial section).
    const auto empty = seal(SnapshotKind::ShardedManifest, {});
    EXPECT_TRUE(
        unseal(SnapshotKind::ShardedManifest, empty).empty());
}

TEST(Serde, WrongKindIsRejected)
{
    const auto frame = seal(SnapshotKind::ShardedManifest, {1, 2, 3});
    EXPECT_THROW(unseal(SnapshotKind::Engine, frame), SnapshotError);
}

TEST(Serde, OlderFormatVersionIsRefusedByName)
{
    // Frame a valid payload exactly as seal() does but under each
    // older format version, with a correct checksum: only the version
    // is wrong, and the error must name both versions rather than
    // misparse the older layout.
    static_assert(kSnapshotVersion == 4);
    const std::vector<std::uint8_t> payload = {1, 2, 3};
    for (const std::uint32_t old : {1u, 2u, 3u}) {
        Serializer s;
        s.u64(kSnapshotMagic);
        s.u32(old);
        s.u32(static_cast<std::uint32_t>(SnapshotKind::Engine));
        s.u64(payload.size());
        s.bytes(payload.data(), payload.size());
        s.u64(fnv1a64(s.data().data(), s.data().size()));
        const std::vector<std::uint8_t> frame = s.take();

        try {
            unseal(SnapshotKind::Engine, frame);
            FAIL() << "a version-" << old << " frame was accepted";
        } catch (const SnapshotError &e) {
            const std::string what = e.what();
            EXPECT_NE(what.find("version " + std::to_string(old) + " "),
                      std::string::npos)
                << what;
            EXPECT_NE(what.find("version "
                                + std::to_string(kSnapshotVersion)),
                      std::string::npos)
                << what;
        }
    }
}

TEST(Serde, EverySingleBitFlipIsRejected)
{
    const auto frame = seal(SnapshotKind::Engine, {0x55, 0xAA, 0x00});
    for (std::size_t byte = 0; byte < frame.size(); ++byte) {
        for (int bit = 0; bit < 8; ++bit) {
            auto mutant = frame;
            mutant[byte] ^= static_cast<std::uint8_t>(1u << bit);
            EXPECT_THROW(unseal(SnapshotKind::Engine, mutant),
                         SnapshotError)
                << "flip of byte " << byte << " bit " << bit
                << " was accepted";
        }
    }
}

TEST(Serde, EveryTruncationIsRejected)
{
    const auto frame = seal(SnapshotKind::Engine, {1, 2, 3, 4});
    for (std::size_t keep = 0; keep < frame.size(); ++keep) {
        const std::vector<std::uint8_t> cut(frame.begin(),
                                            frame.begin() + keep);
        EXPECT_THROW(unseal(SnapshotKind::Engine, cut), SnapshotError)
            << "truncation to " << keep << " bytes was accepted";
    }
}

TEST(Serde, TrailingGarbageIsRejected)
{
    auto frame = seal(SnapshotKind::Engine, {1, 2, 3});
    frame.push_back(0);
    EXPECT_THROW(unseal(SnapshotKind::Engine, frame), SnapshotError);
}

TEST(Serde, FileRoundTripIsAtomicAndExact)
{
    const test::ScratchDir scratch;
    const std::string path = scratch.file("serde_file_test.bin");

    const std::vector<std::uint8_t> data =
        seal(SnapshotKind::Engine, {42, 0, 255});
    writeFileAtomic(path, data);
    EXPECT_TRUE(fileExists(path));
    EXPECT_EQ(readFile(path), data);

    // Overwrite goes through the same temp+rename path.
    const std::vector<std::uint8_t> next =
        seal(SnapshotKind::Engine, {7});
    writeFileAtomic(path, next);
    EXPECT_EQ(readFile(path), next);

    std::remove(path.c_str());
    EXPECT_FALSE(fileExists(path));
    EXPECT_THROW(readFile(path), SnapshotError);
}

// ---------------------------------------------------------------
// Crash durability: fault injection through the writeFileAtomic hook.
// The hook is a plain function pointer, so the point under test lives
// in file-scope state.

const char *failAtPoint = nullptr;
const char *crashAtPoint = nullptr;

bool
failHook(const char *point)
{
    return std::strcmp(point, failAtPoint) != 0;
}

bool
crashHook(const char *point)
{
    if (std::strcmp(point, crashAtPoint) == 0)
        ::_exit(0); // simulate the process dying at this step
    return true;
}

/** RAII hook guard so a failing assertion cannot leak the hook. */
struct HookGuard
{
    explicit HookGuard(WriteFaultHook hook)
    {
        setWriteFileAtomicFaultHook(hook);
    }
    ~HookGuard() { setWriteFileAtomicFaultHook(nullptr); }
};

/** Leftover "<base>.tmp.*" entries next to @p path. */
std::vector<std::string>
tempFilesFor(const std::string &path)
{
    const std::size_t slash = path.find_last_of('/');
    const std::string dir =
        slash == std::string::npos ? "." : path.substr(0, slash);
    const std::string prefix =
        (slash == std::string::npos ? path : path.substr(slash + 1))
        + ".tmp.";
    std::vector<std::string> found;
    DIR *d = ::opendir(dir.c_str());
    if (d == nullptr)
        return found;
    while (struct dirent *e = ::readdir(d)) {
        if (std::strncmp(e->d_name, prefix.c_str(), prefix.size())
            == 0)
            found.push_back(dir + "/" + e->d_name);
    }
    ::closedir(d);
    return found;
}

TEST(SerdeDurability, ForcedStepFailuresKeepOldContentsAndNoTemp)
{
    const test::ScratchDir scratch;
    const std::string path = scratch.file("serde_fault_test.bin");

    const auto oldData = seal(SnapshotKind::Engine, {1, 2, 3});
    const auto newData = seal(SnapshotKind::Engine, {4, 5, 6, 7});
    writeFileAtomic(path, oldData);

    // Failures up to and including the rename must leave the previous
    // snapshot untouched and clean up their temp file.
    for (const char *point : {"open", "write", "fsync-file"}) {
        SCOPED_TRACE(point);
        failAtPoint = point;
        HookGuard guard(&failHook);
        EXPECT_THROW(writeFileAtomic(path, newData), SnapshotError);
        EXPECT_EQ(readFile(path), oldData);
        EXPECT_TRUE(tempFilesFor(path).empty());
    }

    // A hook-forced "rename" failure fires after the real rename
    // already succeeded, modeling a crash where the publish reached
    // the disk but the caller never learned of it: the error must
    // still surface, no temp file remains, and the file is a
    // *complete* snapshot (the new one).
    {
        failAtPoint = "rename";
        HookGuard guard(&failHook);
        EXPECT_THROW(writeFileAtomic(path, newData), SnapshotError);
        EXPECT_TRUE(tempFilesFor(path).empty());
        EXPECT_EQ(readFile(path), newData);
    }

    // A directory-fsync failure reports (durability unproven) but
    // must not unlink the already-complete published file.
    writeFileAtomic(path, oldData);
    {
        failAtPoint = "fsync-dir";
        HookGuard guard(&failHook);
        EXPECT_THROW(writeFileAtomic(path, newData), SnapshotError);
        EXPECT_EQ(readFile(path), newData);
        EXPECT_TRUE(tempFilesFor(path).empty());
    }

}

TEST(SerdeDurability, CrashAtAnyStepNeverYieldsTruncatedSnapshot)
{
    const test::ScratchDir scratch;
    const std::string path = scratch.file("serde_crash_test.bin");

    const auto oldData = seal(SnapshotKind::Engine, {0xAA, 0xBB});
    const auto newData =
        seal(SnapshotKind::Engine,
             std::vector<std::uint8_t>(8192, 0xCD)); // multi-chunk
    writeFileAtomic(path, oldData);

    for (const char *point :
         {"open", "write", "fsync-file", "rename", "fsync-dir"}) {
        SCOPED_TRACE(point);
        const pid_t pid = ::fork();
        ASSERT_GE(pid, 0);
        if (pid == 0) {
            // Child: die exactly after this step. _exit in the hook
            // (or after, if writeFileAtomic unexpectedly returns)
            // skips gtest teardown entirely.
            crashAtPoint = point;
            setWriteFileAtomicFaultHook(&crashHook);
            try {
                writeFileAtomic(path, newData);
            } catch (...) {
            }
            ::_exit(1); // hook never fired: flag it
        }
        int status = 0;
        ASSERT_EQ(::waitpid(pid, &status, 0), pid);
        ASSERT_TRUE(WIFEXITED(status));
        ASSERT_EQ(WEXITSTATUS(status), 0)
            << "child never reached step " << point;

        // The invariant under test: whatever step the "crash" hit,
        // the final path frames a complete snapshot — the whole old
        // contents or the whole new contents, never a truncation.
        const auto onDisk = readFile(path);
        EXPECT_NO_THROW(unseal(SnapshotKind::Engine, onDisk));
        EXPECT_TRUE(onDisk == oldData || onDisk == newData)
            << "snapshot at " << path << " is neither complete "
            << "old nor complete new after a crash at " << point;

        // A crash cannot clean its temp file up — that is fine and
        // invisible to readers; sweep it for the next round.
        for (const auto &tmp : tempFilesFor(path))
            std::remove(tmp.c_str());
        writeFileAtomic(path, oldData); // reset for the next point
    }

}

TEST(SerdeDurability, ConcurrentWritersToOneBasePathNeverCollide)
{
    const test::ScratchDir scratch;
    const std::string path = scratch.file("serde_race_test.bin");

    const auto a =
        seal(SnapshotKind::Engine, std::vector<std::uint8_t>(512, 0xA5));
    const auto b =
        seal(SnapshotKind::Engine, std::vector<std::uint8_t>(768, 0x5A));

    // The pid+sequence temp suffix keeps simultaneous writers on
    // distinct temp files: every interleaving must end with one
    // writer's *complete* frame at the path and no stray temps.
    constexpr int kRounds = 64;
    std::thread ta([&] {
        for (int i = 0; i < kRounds; ++i)
            writeFileAtomic(path, a);
    });
    std::thread tb([&] {
        for (int i = 0; i < kRounds; ++i)
            writeFileAtomic(path, b);
    });
    ta.join();
    tb.join();

    const auto onDisk = readFile(path);
    EXPECT_TRUE(onDisk == a || onDisk == b);
    unseal(SnapshotKind::Engine, onDisk); // complete, uncorrupted
    EXPECT_TRUE(tempFilesFor(path).empty());
}

} // namespace
} // namespace laoram::serde
