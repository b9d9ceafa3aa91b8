/**
 * @file
 * Versioned, checksummed binary serialization for trusted client
 * state snapshots.
 *
 * Every stateful layer (position map, stash, RNG streams, traffic
 * meter, engine metadata) speaks this format through a pair of tiny
 * codecs: Serializer appends fixed-width little-endian fields to a
 * byte buffer, Deserializer reads them back and throws SnapshotError
 * on any overrun. A finished payload is framed by seal(): magic +
 * format version + section kind + payload length + an FNV-1a 64
 * checksum over everything before the checksum field, so truncation,
 * bit flips and format drift are all rejected loudly instead of
 * deserializing garbage into a position map.
 *
 * Snapshots are *trusted-side* artifacts: they contain the position
 * map — exactly the secret ORAM exists to hide — so they are written
 * to client-side sidecar files, never into the untrusted server's
 * meta-blob region.
 */

#ifndef LAORAM_UTIL_SERDE_HH
#define LAORAM_UTIL_SERDE_HH

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

namespace laoram::serde {

/** Thrown for any malformed, corrupt or mismatched snapshot. */
class SnapshotError : public std::runtime_error
{
  public:
    explicit SnapshotError(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

/** Snapshot framing constants (see seal/unseal). */
constexpr std::uint64_t kSnapshotMagic = 0x31544B434F414CULL; // "LAOCKT1"
/** Version 2: the hot-cache section lost its policy byte and per-row
 *  frequency, so a version-1 sidecar must be refused, not misparsed.
 *  Version 3: the tree-ORAM section gained the evictor's drain memory
 *  (PathIo::save) after the stash. Version 4: the trusted treetop
 *  moved out of the tree file into the snapshot (the stash's parked
 *  entries, PathIo's treetop slot table) and the geometry header
 *  gained treetopLevels. */
constexpr std::uint32_t kSnapshotVersion = 4;

/** Section kinds carried in the frame header. */
enum class SnapshotKind : std::uint32_t {
    Engine = 1,        ///< single-engine trusted client state
    ShardedManifest = 2, ///< ShardedLaoram splitter + shard layout
};

/** Append-only little-endian field writer. */
class Serializer
{
  public:
    void
    u8(std::uint8_t v)
    {
        buf.push_back(v);
    }

    void
    u32(std::uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            buf.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void
    u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            buf.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    /** Doubles travel as their IEEE-754 bit pattern (exact). */
    void
    f64(double v)
    {
        std::uint64_t bits = 0;
        static_assert(sizeof(bits) == sizeof(v));
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }

    void
    bytes(const std::uint8_t *p, std::size_t len)
    {
        buf.insert(buf.end(), p, p + len);
    }

    /** Length-prefixed byte blob (for nested sections / payloads). */
    void
    blob(const std::vector<std::uint8_t> &b)
    {
        u64(b.size());
        bytes(b.data(), b.size());
    }

    const std::vector<std::uint8_t> &data() const { return buf; }
    std::vector<std::uint8_t> take() { return std::move(buf); }

  private:
    std::vector<std::uint8_t> buf;
};

/** Bounds-checked little-endian field reader over a byte span. */
class Deserializer
{
  public:
    Deserializer(const std::uint8_t *p, std::size_t len)
        : cur(p), end(p + len)
    {
    }

    explicit Deserializer(const std::vector<std::uint8_t> &b)
        : Deserializer(b.data(), b.size())
    {
    }

    std::uint8_t
    u8()
    {
        need(1);
        return *cur++;
    }

    std::uint32_t
    u32()
    {
        need(4);
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(*cur++) << (8 * i);
        return v;
    }

    std::uint64_t
    u64()
    {
        need(8);
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(*cur++) << (8 * i);
        return v;
    }

    double
    f64()
    {
        const std::uint64_t bits = u64();
        double v = 0.0;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }

    void
    bytes(std::uint8_t *out, std::size_t len)
    {
        need(len);
        std::memcpy(out, cur, len);
        cur += len;
    }

    std::vector<std::uint8_t>
    blob()
    {
        const std::uint64_t len = u64();
        need(len);
        std::vector<std::uint8_t> b(cur, cur + len);
        cur += len;
        return b;
    }

    std::size_t remaining() const
    {
        return static_cast<std::size_t>(end - cur);
    }
    bool atEnd() const { return cur == end; }

  private:
    void
    need(std::uint64_t n)
    {
        if (n > remaining())
            throw SnapshotError(
                "snapshot truncated: field needs " + std::to_string(n)
                + " bytes but only " + std::to_string(remaining())
                + " remain");
    }

    const std::uint8_t *cur;
    const std::uint8_t *end;
};

/** FNV-1a 64-bit digest; detects any single-bit flip in the frame. */
std::uint64_t fnv1a64(const std::uint8_t *p, std::size_t len);

/**
 * Wrap @p payload in the snapshot frame:
 * [magic u64][version u32][kind u32][payloadLen u64][payload]
 * [checksum u64 over everything before the checksum].
 */
std::vector<std::uint8_t> seal(SnapshotKind kind,
                               const std::vector<std::uint8_t> &payload);

/**
 * Validate @p frame (magic, version, kind, length, checksum) and
 * return its payload. Throws SnapshotError naming the first failed
 * check — a flipped bit, a truncated file and a wrong-kind snapshot
 * all produce distinct messages.
 */
std::vector<std::uint8_t> unseal(SnapshotKind kind,
                                 const std::vector<std::uint8_t> &frame);

/**
 * Write @p data to @p path with crash-safe atomic-replace semantics:
 * the bytes go to a unique temp file in the same directory (O_EXCL,
 * pid- and sequence-suffixed, so concurrent writers against one base
 * path never collide), the temp file is fsync'd *before* rename(2)
 * moves it into place, and the parent directory is fsync'd *after*
 * so the rename itself is durable. A crash or power loss at any
 * point leaves the final path holding either the complete previous
 * contents or the complete new contents — never a truncated or
 * zero-length file. Failures before the rename unlink the temp file
 * and throw SnapshotError; a directory-fsync failure after the rename
 * also throws (durability of the replace is not yet guaranteed) but
 * leaves the already-complete new file in place.
 */
void writeFileAtomic(const std::string &path,
                     const std::vector<std::uint8_t> &data);

/**
 * Test-only fault injection for writeFileAtomic. The hook is invoked
 * after each named step — "open", "write", "fsync-file", "rename",
 * "fsync-dir" — and returning false makes that step fail exactly as
 * if the underlying syscall had (temp unlinked, SnapshotError
 * thrown). A hook may also never return (fork-based crash tests
 * _exit() inside it to simulate the process dying at that point).
 * Pass nullptr to clear. Not for production use; the hook is read
 * under a mutex, so setting it concurrently with writers is safe but
 * slow.
 */
using WriteFaultHook = bool (*)(const char *point);
void setWriteFileAtomicFaultHook(WriteFaultHook hook);

/** Read the whole file; throws SnapshotError if unreadable. */
std::vector<std::uint8_t> readFile(const std::string &path);

/** Does a regular file exist at @p path? */
bool fileExists(const std::string &path);

} // namespace laoram::serde

#endif // LAORAM_UTIL_SERDE_HH
