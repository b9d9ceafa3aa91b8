/**
 * @file
 * Request/response types of the online serving frontend.
 *
 * Clients talk to the frontend in *batches*: a batch is an ordered
 * list of lookup/update operations on global block ids, submitted as
 * one unit and answered by one future. Operations of one batch may
 * land in different shards and different look-ahead windows — the
 * future resolves only after every one of them was served against
 * the authoritative trusted-client state. Without a hot-row cache
 * that means the operation's window was written back to the ORAM
 * tree; with one (--cache-mb), an operation on a resident row may
 * complete at admission time, its value living in the trusted cache
 * until the row's already-scheduled access flushes it (write-back
 * coalescing). Either way a completed lookup reflects every earlier
 * same-session operation on that id.
 *
 * Ordering semantics: operations are applied in submission order
 * *per session* (one session's batches form one logical stream), so a
 * lookup submitted after an update to the same id observes the
 * update. Across sessions no order is promised — concurrent sessions
 * race exactly like concurrent clients of any storage service.
 */

#ifndef LAORAM_SERVE_REQUEST_HH
#define LAORAM_SERVE_REQUEST_HH

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/superblock.hh"

namespace laoram::serve {

using core::BlockId;

/** What one operation does to its block. */
enum class OpType : std::uint8_t
{
    Lookup, ///< read the block's payload bytes
    Update, ///< overwrite the payload with the op's bytes
};

/** One operation on one global block id. */
struct Op
{
    OpType type = OpType::Lookup;
    BlockId id = 0;

    /**
     * Update payload (ignored for lookups). Shorter than the engine's
     * payloadBytes overwrites a prefix; longer is truncated.
     */
    std::vector<std::uint8_t> payload;

    static Op
    lookup(BlockId id)
    {
        Op op;
        op.type = OpType::Lookup;
        op.id = id;
        return op;
    }

    static Op
    update(BlockId id, std::vector<std::uint8_t> payload)
    {
        Op op;
        op.type = OpType::Update;
        op.id = id;
        op.payload = std::move(payload);
        return op;
    }
};

/** An ordered list of operations submitted as one unit. */
struct Batch
{
    std::vector<Op> ops;
};

/** Result of one operation, in the batch's submission order. */
struct OpResult
{
    BlockId id = 0;

    /** Payload bytes at serve time (lookups only; empty for updates). */
    std::vector<std::uint8_t> payload;
};

/** Fulfilled value of Session::submit's future. */
struct BatchResult
{
    std::vector<OpResult> results; ///< one per op, same order
};

/**
 * Set on a batch's future when it was submitted after the frontend's
 * stop() closed its admission queues. Operations admitted before the
 * close are still served (their side effects apply); only the
 * batch-level result is withheld.
 */
class RejectedError : public std::runtime_error
{
  public:
    RejectedError()
        : std::runtime_error(
              "batch rejected: serving frontend already stopped")
    {
    }
};

} // namespace laoram::serve

#endif // LAORAM_SERVE_REQUEST_HH
