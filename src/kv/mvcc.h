#ifndef VELOCE_KV_MVCC_H_
#define VELOCE_KV_MVCC_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "kv/timestamp.h"
#include "storage/engine.h"
#include "storage/write_batch.h"

namespace veloce::kv {

/// Multi-version concurrency control over the storage engine.
///
/// Encoding: each logical key maps to engine keys
///   escaped(user_key) . inverted(timestamp)
/// so versions of one key sort newest-first immediately after the key, and
/// a provisional write *intent* (stored at the reserved "infinite" slot)
/// sorts before every committed version. A seek at a read timestamp lands on
/// the intent (if any), then the newest visible version.
///
/// Read rule: every read stops at the slot that decides its answer and never
/// walks the rest of a key's history, so its cost does not grow with the
/// number of versions the key has taken. A point read stops at the reader's
/// own intent, a conflicting intent, or the newest version at or below the
/// read timestamp. Newer versions, and the rest of a key once it is decided,
/// are passed over with a few Next() calls and then one Seek, to
/// escaped(key) . inverted(read_ts) or to the end of the key's prefix. The
/// refresh probe checks one version per key: the newest at or below `upto`.
/// Slots are compared by their escaped prefix in place; only a row a scan
/// returns has its user key decoded.
///
/// Value encoding: flags byte, then
///   kValue:     raw bytes
///   kTombstone: empty
///   kIntent:    txn_id u64 | ts | tombstone u8 | value bytes
///
/// Transaction records live in the cluster's TxnRegistry (see txn.h); MVCC
/// here only reads/writes versioned data and intents.

using TxnId = uint64_t;

/// Metadata for an intent encountered by a read or write.
struct IntentMeta {
  TxnId txn_id = 0;
  Timestamp ts;
};

/// Result of an MVCC point read.
struct MvccGetResult {
  /// Set when a committed visible value exists (not a tombstone).
  std::optional<std::string> value;
  /// Set when the read ran into another transaction's intent at or below
  /// the read timestamp; the caller must resolve/push before retrying.
  std::optional<IntentMeta> conflict;
};

struct MvccScanEntry {
  std::string key;
  std::string value;
};

struct MvccScanResult {
  std::vector<MvccScanEntry> entries;
  std::optional<IntentMeta> conflict;
  /// Key to resume from if `limit` was hit (empty when exhausted).
  std::string resume_key;
};

// Engine-key helpers (exposed for tests and range split logic).
std::string EncodeMvccKey(Slice user_key, Timestamp ts);
/// Encodes the intent slot for a user key (sorts before all versions).
std::string EncodeIntentKey(Slice user_key);
/// Encodes just the escaped user key — the shared prefix of the intent slot
/// and every version. This is the unit bloom filters are built over: one
/// probe answers "does this table hold any slot of this logical key?".
std::string EncodeMvccPrefix(Slice user_key);
/// storage::PrefixExtractor installed into the engine: strips the 12-byte
/// timestamp suffix from an engine user key, leaving the escaped logical
/// key. Installed at engine-open time by KVNode.
Slice MvccPrefixExtractor(Slice engine_user_key);
/// Decodes an engine key; returns false on malformed input. An intent slot
/// decodes with *is_intent=true and undefined ts.
bool DecodeMvccKey(Slice engine_key, std::string* user_key, Timestamp* ts,
                   bool* is_intent);

/// Writes a committed version directly (non-transactional fast path).
void MvccPutValue(storage::WriteBatch* batch, Slice user_key, Timestamp ts,
                  Slice value);
void MvccPutTombstone(storage::WriteBatch* batch, Slice user_key, Timestamp ts);

/// Writes a provisional intent owned by `txn_id` at timestamp `ts`.
void MvccPutIntent(storage::WriteBatch* batch, Slice user_key, TxnId txn_id,
                   Timestamp ts, bool tombstone, Slice value);

/// Reads the newest version of user_key visible at `ts`. If an intent owned
/// by `own_txn` (0 = none) exists it is returned as the value (reads see
/// their own writes); a foreign intent at or below `ts` is reported as a
/// conflict instead.
StatusOr<MvccGetResult> MvccGet(storage::Engine* engine, Slice user_key,
                                Timestamp ts, TxnId own_txn = 0);

/// Scans [start_key, end_key) at `ts`, returning at most `limit` visible
/// entries (0 = unlimited). Stops at the first foreign intent conflict.
StatusOr<MvccScanResult> MvccScan(storage::Engine* engine, Slice start_key,
                                  Slice end_key, Timestamp ts, uint64_t limit,
                                  TxnId own_txn = 0);

/// Returns the intent on user_key, if any.
StatusOr<std::optional<IntentMeta>> MvccGetIntent(storage::Engine* engine,
                                                  Slice user_key);

/// Converts an intent into a committed version at commit_ts (commit=true)
/// or removes it (commit=false). A no-op if the intent is missing or owned
/// by a different transaction.
Status MvccResolveIntent(storage::Engine* engine, Slice user_key, TxnId txn_id,
                         bool commit, Timestamp commit_ts);

/// Rewrites the intent's provisional timestamp after its transaction was
/// timestamp-pushed. A no-op if the intent is missing or foreign.
Status MvccUpdateIntentTimestamp(storage::Engine* engine, Slice user_key,
                                 TxnId txn_id, Timestamp new_ts);

/// True if any committed version of any key in [start, end) has a timestamp
/// in (after, upto] — the transaction read-refresh probe.
StatusOr<bool> MvccAnyNewerVersions(storage::Engine* engine, Slice start,
                                    Slice end, Timestamp after, Timestamp upto);

/// Garbage-collects old versions in [start, end): for each key, versions
/// strictly older than the newest version at or below `threshold` are
/// removed, and if that newest version is a tombstone it is removed too
/// (readers at or above threshold see the key as absent either way).
/// Intents are never touched. Returns the number of versions removed.
StatusOr<uint64_t> MvccGarbageCollect(storage::Engine* engine, Slice start,
                                      Slice end, Timestamp threshold);

}  // namespace veloce::kv

#endif  // VELOCE_KV_MVCC_H_
