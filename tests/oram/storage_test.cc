/**
 * @file
 * Server-storage tests: record round trips, dummies, encryption at
 * rest, the adversary access sink, the vectored read codec that
 * decrypts only the slots the occupancy bitmap marks real, and its
 * fail-closed handling of records the server altered.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "oram/server_storage.hh"

namespace laoram::oram {
namespace {

TreeGeometry
smallGeom()
{
    return TreeGeometry(64, 64, BucketProfile::uniform(4), 0);
}

TEST(ServerStorage, StartsAllDummies)
{
    auto g = smallGeom();
    ServerStorage s(g, 32, false);
    StoredBlock b;
    for (std::uint64_t slot = 0; slot < s.slots(); slot += 17) {
        s.readSlot(slot, b);
        EXPECT_TRUE(b.isDummy());
    }
}

TEST(ServerStorage, WriteReadRoundTrip)
{
    auto g = smallGeom();
    ServerStorage s(g, 32, false);
    std::vector<std::uint8_t> payload(32);
    for (std::size_t i = 0; i < payload.size(); ++i)
        payload[i] = static_cast<std::uint8_t>(i * 3);

    s.writeSlot(10, 1234, 7, payload.data(), payload.size());
    StoredBlock b;
    s.readSlot(10, b);
    EXPECT_EQ(b.id, 1234u);
    EXPECT_EQ(b.leaf, 7u);
    EXPECT_EQ(b.payload, payload);
    EXPECT_FALSE(b.isDummy());
}

TEST(ServerStorage, ShortPayloadZeroPadded)
{
    auto g = smallGeom();
    ServerStorage s(g, 16, false);
    std::vector<std::uint8_t> payload{1, 2, 3};
    s.writeSlot(0, 5, 1, payload.data(), payload.size());
    StoredBlock b;
    s.readSlot(0, b);
    ASSERT_EQ(b.payload.size(), 16u);
    EXPECT_EQ(b.payload[0], 1);
    EXPECT_EQ(b.payload[2], 3);
    for (std::size_t i = 3; i < 16; ++i)
        EXPECT_EQ(b.payload[i], 0);
}

TEST(ServerStorage, DummyOverwriteErases)
{
    auto g = smallGeom();
    ServerStorage s(g, 8, false);
    std::vector<std::uint8_t> payload(8, 0xAA);
    s.writeSlot(3, 42, 9, payload.data(), payload.size());
    s.writeDummy(3);
    StoredBlock b;
    s.readSlot(3, b);
    EXPECT_TRUE(b.isDummy());
}

TEST(ServerStorage, ZeroPayloadMode)
{
    auto g = smallGeom();
    ServerStorage s(g, 0, false);
    EXPECT_EQ(s.payloadBytes(), 0u);
    EXPECT_EQ(s.recordBytes(), 16u);
    s.writeSlot(1, 77, 3, nullptr, 0);
    StoredBlock b;
    s.readSlot(1, b);
    EXPECT_EQ(b.id, 77u);
    EXPECT_EQ(b.leaf, 3u);
    EXPECT_TRUE(b.payload.empty());
}

TEST(ServerStorage, EncryptedRoundTrip)
{
    auto g = smallGeom();
    ServerStorage s(g, 32, true, /*keySeed=*/99);
    std::vector<std::uint8_t> payload(32, 0x5C);
    s.writeSlot(20, 8, 2, payload.data(), payload.size());
    StoredBlock b;
    s.readSlot(20, b);
    EXPECT_EQ(b.id, 8u);
    EXPECT_EQ(b.leaf, 2u);
    EXPECT_EQ(b.payload, payload);
    // Re-read works (epoch unchanged between writes).
    s.readSlot(20, b);
    EXPECT_EQ(b.id, 8u);
}

TEST(ServerStorage, EncryptedRewriteStillReads)
{
    auto g = smallGeom();
    ServerStorage s(g, 16, true, 3);
    std::vector<std::uint8_t> p1(16, 1), p2(16, 2);
    s.writeSlot(4, 10, 0, p1.data(), p1.size());
    s.writeSlot(4, 11, 1, p2.data(), p2.size());
    StoredBlock b;
    s.readSlot(4, b);
    EXPECT_EQ(b.id, 11u);
    EXPECT_EQ(b.payload, p2);
}

TEST(ServerStorage, EncryptedDummiesDecryptCleanly)
{
    auto g = smallGeom();
    ServerStorage s(g, 8, true, 5);
    StoredBlock b;
    for (std::uint64_t slot = 0; slot < s.slots(); slot += 29) {
        s.readSlot(slot, b);
        EXPECT_TRUE(b.isDummy());
    }
}

TEST(ServerStorage, ResidentBytesMatchLayout)
{
    auto g = smallGeom();
    ServerStorage s(g, 48, false);
    EXPECT_EQ(s.residentBytes(), g.totalSlots() * (16 + 48));
}

TEST(ServerStorage, AccessSinkSeesReadsAndWrites)
{
    auto g = smallGeom();
    ServerStorage s(g, 0, false);
    std::vector<std::pair<std::uint64_t, bool>> log;
    s.setAccessSink([&](std::uint64_t slot, bool write) {
        log.emplace_back(slot, write);
    });
    StoredBlock b;
    s.readSlot(7, b);
    s.writeSlot(9, 1, 0, nullptr, 0);
    s.writeDummy(11);
    ASSERT_EQ(log.size(), 3u);
    EXPECT_EQ(log[0], std::make_pair(std::uint64_t{7}, false));
    EXPECT_EQ(log[1], std::make_pair(std::uint64_t{9}, true));
    EXPECT_EQ(log[2], std::make_pair(std::uint64_t{11}, true));
}

/**
 * Heap slot store that keeps the persisted meta blob, so a test can
 * read back the epoch table ServerStorage::flush() saves there, and
 * exposes its at-rest records, so a test can play a server that
 * alters them.
 */
class MetaDramBackend final : public storage::SlotBackend
{
  public:
    MetaDramBackend(std::uint64_t slots, std::uint64_t recordBytes,
                    std::uint64_t metaBytes)
        : SlotBackend(slots, recordBytes, "meta_dram"),
          meta(metaBytes),
          raw(slots * recordBytes)
    {
    }

    std::uint64_t residentBytes() const override { return raw.size(); }
    std::uint64_t metaCapacity() const override { return meta.size(); }

    void
    writeMeta(const std::uint8_t *src, std::uint64_t len) override
    {
        std::copy_n(src, len, meta.begin());
    }

    std::uint64_t
    readMeta(std::uint8_t *dst, std::uint64_t len) const override
    {
        const std::uint64_t n = std::min<std::uint64_t>(len, meta.size());
        std::copy_n(meta.begin(), n, dst);
        return n;
    }

    /** The at-rest bytes of @p slot (recordBytes long). */
    std::uint8_t *
    record(std::uint64_t slot)
    {
        return raw.data() + slot * recBytes;
    }

    std::vector<std::uint8_t> meta;

  protected:
    void
    doReadSlots(const std::uint64_t *slots, std::size_t n,
                std::uint8_t *dst) override
    {
        for (std::size_t i = 0; i < n; ++i)
            std::memcpy(dst + i * recBytes,
                        raw.data() + slots[i] * recBytes, recBytes);
    }

    void
    doWriteSlots(const std::uint64_t *slots, std::size_t n,
                 const std::uint8_t *src) override
    {
        for (std::size_t i = 0; i < n; ++i)
            std::memcpy(raw.data() + slots[i] * recBytes,
                        src + i * recBytes, recBytes);
    }

  private:
    std::vector<std::uint8_t> raw;
};

TEST(ServerStorage, HeaderFirstVectoredReadMatchesPerSlotWrites)
{
    // The occupancy read against per-slot writes: 300 distinct slots
    // in one call cross the 128-record nonce chunk of the one decrypt
    // call when every record is real, dummies come back with leaf 0
    // and an empty payload without being decrypted, and neither the
    // epochs nor anything else change on a read.
    const auto g = smallGeom();
    constexpr std::size_t kN = 300;
    std::vector<std::uint64_t> slots(kN);
    for (std::size_t i = 0; i < kN; ++i)
        slots[i] = (i * 7) % g.totalSlots();

    struct Pattern
    {
        const char *name;
        bool (*real)(std::size_t i);
    };
    const Pattern patterns[] = {
        {"all dummy", [](std::size_t) { return false; }},
        {"all real", [](std::size_t) { return true; }},
        {"alternating", [](std::size_t i) { return i % 2 == 0; }},
        {"real only at end", [](std::size_t i) { return i + 3 >= kN; }},
    };

    for (const bool encrypt : {false, true}) {
        for (const std::uint64_t payload : {0u, 128u}) {
            const std::uint64_t metaBytes =
                encrypt ? g.totalSlots() * 4 + crypto::kKeyCheckBytes : 0;
            auto owned = std::make_unique<MetaDramBackend>(
                g.totalSlots(), 16 + payload, metaBytes);
            MetaDramBackend &backend = *owned;
            ServerStorage s(g, payload, encrypt, /*keySeed=*/17,
                            std::move(owned));
            // Reused across patterns, so payload capacity left by one
            // read meets the dummies of the next.
            std::vector<StoredBlock> vec;
            for (const Pattern &pat : patterns) {
                SCOPED_TRACE(std::string(pat.name)
                             + (encrypt ? ", encrypted" : ", plain")
                             + ", payload " + std::to_string(payload));
                std::vector<std::vector<std::uint8_t>> want(kN);
                for (std::size_t i = 0; i < kN; ++i) {
                    if (!pat.real(i)) {
                        s.writeDummy(slots[i]);
                        continue;
                    }
                    want[i].resize(payload);
                    for (std::size_t b = 0; b < payload; ++b)
                        want[i][b] = static_cast<std::uint8_t>(i * 31 + b);
                    s.writeSlot(slots[i], 1000 + i, i % g.numLeaves(),
                                want[i].data(), want[i].size());
                }

                s.flush();
                const std::vector<std::uint8_t> epochsBefore = backend.meta;
                s.readSlots(slots.data(), kN, vec);
                s.flush();
                EXPECT_EQ(backend.meta, epochsBefore)
                    << "a read changed the epoch table";

                ASSERT_EQ(vec.size(), kN);
                for (std::size_t i = 0; i < kN; ++i) {
                    if (pat.real(i)) {
                        ASSERT_EQ(vec[i].id, 1000 + i) << "record " << i;
                        ASSERT_EQ(vec[i].leaf, i % g.numLeaves())
                            << "record " << i;
                        ASSERT_EQ(vec[i].payload, want[i])
                            << "record " << i;
                    } else {
                        ASSERT_TRUE(vec[i].isDummy()) << "record " << i;
                        ASSERT_EQ(vec[i].leaf, 0u) << "record " << i;
                        ASSERT_TRUE(vec[i].payload.empty())
                            << "record " << i;
                    }
                }
            }
        }
    }
}

/** XOR @p mask into the little-endian u64 at @p p. */
void
xorU64(std::uint8_t *p, std::uint64_t mask)
{
    std::uint64_t v;
    std::memcpy(&v, p, sizeof(v));
    v ^= mask;
    std::memcpy(p, &v, sizeof(v));
}

/** The message readSlot throws for @p slot, or "" if it returns. */
std::string
readError(const ServerStorage &s, std::uint64_t slot)
{
    StoredBlock b;
    try {
        s.readSlot(slot, b);
    } catch (const std::runtime_error &e) {
        return e.what();
    }
    return "";
}

TEST(ServerStorage, ForgedHeaderFailsClosed)
{
    // The server flips header bits of an occupied slot (ChaCha20 is
    // malleable, so a ciphertext flip is the same plaintext flip) and
    // scribbles a record over a dummy slot. Reads of the first must
    // throw naming the slot; the second must still read as a dummy.
    const auto g = smallGeom();
    constexpr std::uint64_t kPayload = 16;
    constexpr std::uint64_t kReal = 10;
    constexpr std::uint64_t kDummy = 11;
    constexpr BlockId kId = 5;
    constexpr Leaf kLeaf = 3;
    for (const bool encrypt : {false, true}) {
        SCOPED_TRACE(encrypt ? "encrypted" : "plain");
        const std::uint64_t metaBytes =
            encrypt ? g.totalSlots() * 4 + crypto::kKeyCheckBytes : 0;
        auto owned = std::make_unique<MetaDramBackend>(
            g.totalSlots(), 16 + kPayload, metaBytes);
        MetaDramBackend &backend = *owned;
        ServerStorage s(g, kPayload, encrypt, /*keySeed=*/17,
                        std::move(owned));
        const std::vector<std::uint8_t> payload(kPayload, 0x6b);
        s.writeSlot(kReal, kId, kLeaf, payload.data(), payload.size());
        ASSERT_TRUE(s.occupied(kReal));
        ASSERT_FALSE(s.occupied(kDummy));
        EXPECT_EQ(s.auditOccupancy(), "");

        // Header now decrypts to kInvalidBlock.
        xorU64(backend.record(kReal), kId ^ kInvalidBlock);
        const std::string noBlock = readError(s, kReal);
        EXPECT_NE(noBlock.find("slot 10 "), std::string::npos) << noBlock;
        // The whole path fails too, not just the one slot.
        const std::vector<std::uint64_t> path = {kReal - 2, kReal, kDummy};
        std::vector<StoredBlock> out;
        EXPECT_THROW(s.readSlots(path.data(), path.size(), out),
                     std::runtime_error);
        xorU64(backend.record(kReal), kId ^ kInvalidBlock);

        // Leaf now decrypts to numLeaves(), one past the last leaf.
        xorU64(backend.record(kReal) + 8, kLeaf ^ g.numLeaves());
        const std::string badLeaf = readError(s, kReal);
        EXPECT_NE(badLeaf.find("slot 10 "), std::string::npos) << badLeaf;
        xorU64(backend.record(kReal) + 8, kLeaf ^ g.numLeaves());

        StoredBlock b;
        s.readSlot(kReal, b);
        EXPECT_EQ(b.id, kId);
        EXPECT_EQ(b.leaf, kLeaf);
        EXPECT_EQ(b.payload, payload);

        // Copy the real record's bytes over a dummy slot (a
        // well-formed block in plain mode; noise under slot 11's
        // nonce when encrypted). The dummy is never decrypted, so no
        // block is injected, but the audit scan sees a real header
        // where the bitmap says dummy.
        std::memcpy(backend.record(kDummy), backend.record(kReal),
                    16 + kPayload);
        s.readSlot(kDummy, b);
        EXPECT_TRUE(b.isDummy());
        EXPECT_EQ(b.leaf, 0u);
        EXPECT_TRUE(b.payload.empty());
        EXPECT_EQ(s.auditOccupancy().rfind("slot 11 ", 0), 0u)
            << s.auditOccupancy();
    }
}

} // namespace
} // namespace laoram::oram
