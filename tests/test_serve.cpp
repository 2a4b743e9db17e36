// serve::LruCache and the serve::protocol frame layer — the daemon's
// resource-bounding and wire primitives, pinned in isolation (the daemon
// behavior built on them is covered by test_serve_daemon.cpp).
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <memory>
#include <string>
#include <thread>

#include "serve/lru_cache.h"
#include "serve/protocol.h"

namespace kadsim::serve {
namespace {

// ---------------------------------------------------------------------------
// LruCache
// ---------------------------------------------------------------------------

TEST(LruCache, EvictsLeastRecentlyUsed) {
    LruCache<std::string, int> cache(2);
    cache.put("a", std::make_shared<int>(1));
    cache.put("b", std::make_shared<int>(2));
    ASSERT_NE(cache.get("a"), nullptr);  // refresh "a": "b" is now LRU
    cache.put("c", std::make_shared<int>(3));
    EXPECT_EQ(cache.get("b"), nullptr);
    ASSERT_NE(cache.get("a"), nullptr);
    ASSERT_NE(cache.get("c"), nullptr);
    EXPECT_EQ(cache.size(), 2u);
    const auto stats = cache.stats();
    EXPECT_EQ(stats.evictions, 1u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.hits, 3u);
}

TEST(LruCache, ReinsertRefreshesWithoutEviction) {
    LruCache<std::string, int> cache(2);
    cache.put("a", std::make_shared<int>(1));
    cache.put("b", std::make_shared<int>(2));
    cache.put("a", std::make_shared<int>(10));  // replace, no eviction
    EXPECT_EQ(cache.stats().evictions, 0u);
    EXPECT_EQ(*cache.get("a"), 10);
    cache.put("c", std::make_shared<int>(3));  // "b" is LRU now
    EXPECT_EQ(cache.get("b"), nullptr);
    EXPECT_NE(cache.get("a"), nullptr);
}

TEST(LruCache, EvictedValueSurvivesWhileHeld) {
    LruCache<std::string, int> cache(1);
    cache.put("a", std::make_shared<int>(7));
    const std::shared_ptr<int> held = cache.get("a");
    cache.put("b", std::make_shared<int>(8));  // evicts "a" from the cache
    EXPECT_EQ(cache.get("a"), nullptr);
    ASSERT_NE(held, nullptr);
    EXPECT_EQ(*held, 7) << "eviction must not invalidate a held value";
}

TEST(LruCache, CapacityOneDegeneratesToSingleSlot) {
    LruCache<int, int> cache(1);
    for (int i = 0; i < 5; ++i) cache.put(i, std::make_shared<int>(i));
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.stats().evictions, 4u);
    EXPECT_EQ(*cache.get(4), 4);
}

// ---------------------------------------------------------------------------
// Protocol framing (over a socketpair, the same byte stream the AF_UNIX
// connection carries)
// ---------------------------------------------------------------------------

struct FdPair {
    int a = -1;
    int b = -1;
    FdPair() {
        int fds[2];
        EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
        a = fds[0];
        b = fds[1];
    }
    ~FdPair() {
        if (a >= 0) ::close(a);
        if (b >= 0) ::close(b);
    }
};

TEST(Protocol, RoundTripsPayloadsIncludingEmptyAndBinary) {
    FdPair fds;
    std::string binary = "KSNP\x01\x00\x00\x00";
    binary.push_back('\0');
    binary += "tail";
    for (const std::string& payload : {std::string("KAPPA latest"), std::string(),
                                       binary, std::string(100000, 'x'),
                                       std::string(300000, 'y')}) {
        std::thread writer(
            [&] { EXPECT_EQ(write_frame(fds.a, payload), FrameResult::kOk); });
        std::string got = "poisoned";
        EXPECT_EQ(read_frame(fds.b, got), FrameResult::kOk);
        EXPECT_EQ(got, payload);
        writer.join();
    }
}

TEST(Protocol, CleanCloseBetweenFramesReadsAsClosed) {
    FdPair fds;
    ASSERT_EQ(write_frame(fds.a, "one"), FrameResult::kOk);
    ::close(fds.a);
    fds.a = -1;
    std::string got;
    EXPECT_EQ(read_frame(fds.b, got), FrameResult::kOk);
    EXPECT_EQ(got, "one");
    EXPECT_EQ(read_frame(fds.b, got), FrameResult::kClosed);
}

TEST(Protocol, MidFrameCloseReadsAsTruncated) {
    FdPair fds;
    // A length prefix promising 100 bytes, then only 3, then EOF.
    const char partial[] = {100, 0, 0, 0, 'a', 'b', 'c'};
    ASSERT_EQ(::write(fds.a, partial, sizeof partial),
              static_cast<ssize_t>(sizeof partial));
    ::close(fds.a);
    fds.a = -1;
    std::string got;
    EXPECT_EQ(read_frame(fds.b, got), FrameResult::kTruncated);
}

// A header alone claims an allowed but huge payload, then the peer closes:
// the read fails as truncated having allocated at most one chunk, not the
// claimed 256 MiB.
TEST(Protocol, ClaimedLengthIsNotAllocatedBeforeBytesArrive) {
    FdPair fds;
    const unsigned char header[] = {0x00, 0x00, 0x00, 0x10};  // 256 MiB claim
    ASSERT_EQ(::write(fds.a, header, sizeof header), static_cast<ssize_t>(sizeof header));
    ::close(fds.a);
    fds.a = -1;
    std::string got;
    EXPECT_EQ(read_frame(fds.b, got), FrameResult::kTruncated);
    EXPECT_LE(got.capacity(), kFrameReadChunk);
}

TEST(Protocol, OversizedDeclaredLengthIsRejectedNotAllocated) {
    FdPair fds;
    const unsigned char huge[] = {0xFF, 0xFF, 0xFF, 0xFF};  // ~4 GiB claim
    ASSERT_EQ(::write(fds.a, huge, sizeof huge), static_cast<ssize_t>(sizeof huge));
    std::string got;
    EXPECT_EQ(read_frame(fds.b, got, /*max_payload=*/1 << 20), FrameResult::kTooLarge);
}

}  // namespace
}  // namespace kadsim::serve
