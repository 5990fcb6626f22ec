#include "kv/mvcc.h"

#include "common/codec.h"
#include "common/logging.h"

namespace veloce::kv {

namespace {

constexpr char kFlagValue = 0;
constexpr char kFlagTombstone = 1;
constexpr char kFlagIntent = 2;

constexpr size_t kTsSuffixLen = 12;  // 8 bytes wall + 4 bytes logical

void AppendInvertedTimestamp(std::string* dst, Timestamp ts) {
  OrderedPutUint64(dst, ~static_cast<uint64_t>(ts.wall));
  const uint32_t inv = ~ts.logical;
  dst->push_back(static_cast<char>(inv >> 24));
  dst->push_back(static_cast<char>(inv >> 16));
  dst->push_back(static_cast<char>(inv >> 8));
  dst->push_back(static_cast<char>(inv));
}

// Decodes the kTsSuffixLen-byte suffix at `p`; the all-zero suffix is the
// intent slot.
void DecodeTsSuffix(const char* p, Timestamp* ts, bool* is_intent) {
  uint64_t inv_wall = 0;
  for (size_t i = 0; i < 8; ++i) {
    inv_wall = (inv_wall << 8) | static_cast<unsigned char>(p[i]);
  }
  uint32_t inv_logical = 0;
  for (size_t i = 8; i < kTsSuffixLen; ++i) {
    inv_logical = (inv_logical << 8) | static_cast<unsigned char>(p[i]);
  }
  *is_intent = inv_wall == 0 && inv_logical == 0;
  if (*is_intent) {
    *ts = Timestamp();
    return;
  }
  ts->wall = static_cast<Nanos>(~inv_wall);
  ts->logical = ~inv_logical;
}

struct IntentValue {
  TxnId txn_id;
  Timestamp ts;
  bool tombstone;
  std::string value;
};

std::string EncodeIntentValue(TxnId txn_id, Timestamp ts, bool tombstone,
                              Slice value) {
  std::string out;
  out.push_back(kFlagIntent);
  PutFixed64(&out, txn_id);
  PutFixed64(&out, static_cast<uint64_t>(ts.wall));
  PutFixed32(&out, ts.logical);
  out.push_back(tombstone ? 1 : 0);
  out.append(value.data(), value.size());
  return out;
}

bool DecodeIntentValue(Slice raw, IntentValue* out) {
  if (raw.empty() || raw[0] != kFlagIntent) return false;
  raw.RemovePrefix(1);
  uint64_t txn = 0, wall = 0;
  uint32_t logical = 0;
  if (!GetFixed64(&raw, &txn) || !GetFixed64(&raw, &wall) ||
      !GetFixed32(&raw, &logical) || raw.empty()) {
    return false;
  }
  out->txn_id = txn;
  out->ts = {static_cast<Nanos>(wall), logical};
  out->tombstone = raw[0] != 0;
  raw.RemovePrefix(1);
  out->value = raw.ToString();
  return true;
}

}  // namespace

std::string EncodeMvccKey(Slice user_key, Timestamp ts) {
  std::string out;
  OrderedPutString(&out, user_key);
  AppendInvertedTimestamp(&out, ts);
  return out;
}

std::string EncodeIntentKey(Slice user_key) {
  std::string out;
  OrderedPutString(&out, user_key);
  out.append(kTsSuffixLen, '\0');  // sorts before every inverted timestamp
  return out;
}

std::string EncodeMvccPrefix(Slice user_key) {
  std::string out;
  OrderedPutString(&out, user_key);
  return out;
}

Slice MvccPrefixExtractor(Slice engine_user_key) {
  // Every MVCC engine key is escaped(user_key) . 12-byte suffix; anything
  // shorter (never written by this layer) maps to itself, which only costs
  // bloom precision, never correctness.
  if (engine_user_key.size() > kTsSuffixLen) {
    return Slice(engine_user_key.data(), engine_user_key.size() - kTsSuffixLen);
  }
  return engine_user_key;
}

bool DecodeMvccKey(Slice engine_key, std::string* user_key, Timestamp* ts,
                   bool* is_intent) {
  if (!OrderedGetString(&engine_key, user_key)) return false;
  if (engine_key.size() != kTsSuffixLen) return false;
  DecodeTsSuffix(engine_key.data(), ts, is_intent);
  return true;
}

void MvccPutValue(storage::WriteBatch* batch, Slice user_key, Timestamp ts,
                  Slice value) {
  std::string v;
  v.push_back(kFlagValue);
  v.append(value.data(), value.size());
  batch->Put(EncodeMvccKey(user_key, ts), v);
}

void MvccPutTombstone(storage::WriteBatch* batch, Slice user_key, Timestamp ts) {
  std::string v;
  v.push_back(kFlagTombstone);
  batch->Put(EncodeMvccKey(user_key, ts), v);
}

void MvccPutIntent(storage::WriteBatch* batch, Slice user_key, TxnId txn_id,
                   Timestamp ts, bool tombstone, Slice value) {
  batch->Put(EncodeIntentKey(user_key), EncodeIntentValue(txn_id, ts, tombstone, value));
}

namespace {

// How many slots a read passes over with Next() before it repositions with
// one Seek. A Next is cheaper than a Seek, which repositions every memtable
// and table under the merging iterator, but a key's history can be
// arbitrarily long; stepping a few slots and then seeking keeps each read's
// cost independent of how many versions its key has taken.
constexpr int kNextsBeforeSeek = 8;

// One engine slot, viewed in place. `prefix` is the escaped user key (what
// MvccPrefixExtractor returns); it points into the iterator's current key
// and is valid only until the iterator moves.
struct Slot {
  Slice prefix;
  Timestamp ts;
  bool is_intent = false;
};

// Parses the slot under `it` without copying it. Only the shape is checked
// (an escaped-key terminator, then the timestamp suffix); user-key bytes are
// decoded only for the rows a scan returns.
Status ParseSlot(const storage::Iterator& it, Slot* slot) {
  const Slice key = it.key();
  if (key.size() < kTsSuffixLen + 2) return Status::Corruption("bad MVCC key");
  slot->prefix = MvccPrefixExtractor(key);
  const char* suffix = slot->prefix.data() + slot->prefix.size();
  if (suffix[-2] != '\x00' || suffix[-1] != '\x01') {
    return Status::Corruption("bad MVCC key");
  }
  DecodeTsSuffix(suffix, &slot->ts, &slot->is_intent);
  return Status::OK();
}

Status DecodePrefix(Slice prefix, std::string* user_key) {
  if (!OrderedGetString(&prefix, user_key) || !prefix.empty()) {
    return Status::Corruption("bad MVCC key");
  }
  return Status::OK();
}

// Moves `it` from a slot of the key with escaped prefix `prefix` to that
// key's newest version at or below `ts`, passing over the intent and newer
// versions: up to kNextsBeforeSeek Next() calls, then one Seek to
// prefix . inverted(ts), where that version (if any) sorts first. Sets
// *found and fills *slot when the version exists; otherwise the iterator is
// left at the next key's first slot, or exhausted.
Status SeekVersionAtOrBelow(storage::Iterator* it, const std::string& prefix,
                            Timestamp ts, Slot* slot, bool* found) {
  *found = false;
  for (int steps = 0; it->Valid(); ++steps) {
    VELOCE_RETURN_IF_ERROR(ParseSlot(*it, slot));
    if (slot->prefix != Slice(prefix)) return Status::OK();
    if (!slot->is_intent && slot->ts <= ts) {
      *found = true;
      return Status::OK();
    }
    if (steps == kNextsBeforeSeek) {
      std::string target = prefix;
      AppendInvertedTimestamp(&target, ts);
      it->Seek(target);
    } else {
      it->Next();
    }
  }
  return Status::OK();
}

// Moves `it` past the remaining slots of the key with escaped prefix
// `prefix`: up to kNextsBeforeSeek Next() calls, then one Seek to
// PrefixEnd(prefix), the first engine key after every slot of that key.
void NextKey(storage::Iterator* it, const std::string& prefix) {
  for (int steps = 0; it->Valid(); ++steps) {
    if (MvccPrefixExtractor(it->key()) != Slice(prefix)) return;
    if (steps == kNextsBeforeSeek) {
      it->Seek(PrefixEnd(prefix));
      return;
    }
    it->Next();
  }
}

// Reads the visible state of the key with escaped prefix `prefix` from an
// iterator positioned at or after that key's intent slot, and stops at the
// slot that decides it: the reader's own intent, a conflicting intent at or
// below read_ts, or the newest version at or below read_ts. The rest of the
// key's history is never visited; scans move on with NextKey. `out` starts
// empty.
Status ReadKeyVersions(storage::Iterator* it, const std::string& prefix,
                       Timestamp read_ts, TxnId own_txn, MvccGetResult* out) {
  if (!it->Valid()) return Status::OK();
  Slot slot;
  VELOCE_RETURN_IF_ERROR(ParseSlot(*it, &slot));
  if (slot.prefix != Slice(prefix)) return Status::OK();
  if (slot.is_intent) {
    IntentValue intent;
    if (!DecodeIntentValue(it->value(), &intent)) {
      return Status::Corruption("bad intent value");
    }
    if (intent.txn_id == own_txn && own_txn != 0) {
      // Transactions read their own provisional writes.
      if (!intent.tombstone) out->value = std::move(intent.value);
      return Status::OK();
    }
    if (intent.ts <= read_ts) {
      out->conflict = IntentMeta{intent.txn_id, intent.ts};
      return Status::OK();
    }
    // Intent above our read timestamp: invisible; passed over below.
  }
  bool found = false;
  VELOCE_RETURN_IF_ERROR(SeekVersionAtOrBelow(it, prefix, read_ts, &slot, &found));
  if (!found) return Status::OK();
  Slice raw = it->value();
  if (raw.empty()) return Status::Corruption("empty MVCC value");
  const char flag = raw[0];
  raw.RemovePrefix(1);
  if (flag == kFlagValue) {
    out->value = raw.ToString();
  } else if (flag != kFlagTombstone) {
    return Status::Corruption("unexpected value flag in version slot");
  }
  return Status::OK();
}

}  // namespace

StatusOr<MvccGetResult> MvccGet(storage::Engine* engine, Slice user_key,
                                Timestamp ts, TxnId own_txn) {
  // Point-read fast path: bound the iterator to exactly this logical key's
  // slots [intent, PrefixEnd(prefix)) and hand the engine the extracted
  // prefix so tables the bloom filter rejects are never opened.
  const std::string prefix = EncodeMvccPrefix(user_key);
  auto it = engine->NewBoundedIterator(EncodeIntentKey(user_key),
                                       PrefixEnd(prefix), prefix);
  it->SeekToFirst();
  MvccGetResult result;
  VELOCE_RETURN_IF_ERROR(ReadKeyVersions(it.get(), prefix, ts, own_txn, &result));
  return result;
}

StatusOr<MvccScanResult> MvccScan(storage::Engine* engine, Slice start_key,
                                  Slice end_key, Timestamp ts, uint64_t limit,
                                  TxnId own_txn) {
  MvccScanResult result;
  // The escape encoding preserves order and no escaped key is a prefix of
  // another, so the engine-key bound alone confines the scan to
  // [start_key, end_key).
  std::string upper;
  if (!end_key.empty()) OrderedPutString(&upper, end_key);
  auto it = engine->NewBoundedIterator(EncodeIntentKey(start_key), upper);
  it->SeekToFirst();
  std::string prefix;
  while (it->Valid()) {
    const Slice slot_prefix = MvccPrefixExtractor(it->key());
    prefix.assign(slot_prefix.data(), slot_prefix.size());
    if (limit != 0 && result.entries.size() >= limit) {
      VELOCE_RETURN_IF_ERROR(DecodePrefix(prefix, &result.resume_key));
      break;
    }
    MvccGetResult row;
    VELOCE_RETURN_IF_ERROR(ReadKeyVersions(it.get(), prefix, ts, own_txn, &row));
    if (row.conflict.has_value()) {
      result.conflict = row.conflict;
      return result;
    }
    if (row.value.has_value()) {
      MvccScanEntry entry;
      VELOCE_RETURN_IF_ERROR(DecodePrefix(prefix, &entry.key));
      entry.value = std::move(*row.value);
      result.entries.push_back(std::move(entry));
    }
    NextKey(it.get(), prefix);
  }
  return result;
}

StatusOr<std::optional<IntentMeta>> MvccGetIntent(storage::Engine* engine,
                                                  Slice user_key) {
  std::string raw;
  Status s = engine->Get(EncodeIntentKey(user_key), &raw);
  if (s.IsNotFound()) return std::optional<IntentMeta>();
  VELOCE_RETURN_IF_ERROR(s);
  IntentValue intent;
  if (!DecodeIntentValue(Slice(raw), &intent)) {
    return Status::Corruption("bad intent value");
  }
  return std::optional<IntentMeta>(IntentMeta{intent.txn_id, intent.ts});
}

Status MvccResolveIntent(storage::Engine* engine, Slice user_key, TxnId txn_id,
                         bool commit, Timestamp commit_ts) {
  const std::string intent_key = EncodeIntentKey(user_key);
  std::string raw;
  Status s = engine->Get(intent_key, &raw);
  if (s.IsNotFound()) return Status::OK();  // already resolved
  VELOCE_RETURN_IF_ERROR(s);
  IntentValue intent;
  if (!DecodeIntentValue(Slice(raw), &intent)) {
    return Status::Corruption("bad intent value");
  }
  if (intent.txn_id != txn_id) return Status::OK();  // not ours

  storage::WriteBatch batch;
  batch.Delete(intent_key);
  if (commit) {
    if (intent.tombstone) {
      MvccPutTombstone(&batch, user_key, commit_ts);
    } else {
      MvccPutValue(&batch, user_key, commit_ts, intent.value);
    }
  }
  return engine->Write(batch);
}

Status MvccUpdateIntentTimestamp(storage::Engine* engine, Slice user_key,
                                 TxnId txn_id, Timestamp new_ts) {
  const std::string intent_key = EncodeIntentKey(user_key);
  std::string raw;
  Status s = engine->Get(intent_key, &raw);
  if (s.IsNotFound()) return Status::OK();
  VELOCE_RETURN_IF_ERROR(s);
  IntentValue intent;
  if (!DecodeIntentValue(Slice(raw), &intent)) {
    return Status::Corruption("bad intent value");
  }
  if (intent.txn_id != txn_id || intent.ts >= new_ts) return Status::OK();
  return engine->Put(intent_key, EncodeIntentValue(txn_id, new_ts,
                                                   intent.tombstone, intent.value));
}

StatusOr<bool> MvccAnyNewerVersions(storage::Engine* engine, Slice start,
                                    Slice end, Timestamp after, Timestamp upto) {
  std::string end_bound;
  if (!end.empty()) OrderedPutString(&end_bound, end);
  auto it = engine->NewBoundedIterator(EncodeIntentKey(start), end_bound);
  it->SeekToFirst();
  std::string prefix;
  Slot slot;
  while (it->Valid()) {
    const Slice slot_prefix = MvccPrefixExtractor(it->key());
    prefix.assign(slot_prefix.data(), slot_prefix.size());
    // Only the newest committed version at or below `upto` can answer: if
    // it is not above `after`, no older one is either.
    bool found = false;
    VELOCE_RETURN_IF_ERROR(SeekVersionAtOrBelow(it.get(), prefix, upto, &slot, &found));
    if (found && slot.ts > after) return true;
    NextKey(it.get(), prefix);
  }
  return false;
}

StatusOr<uint64_t> MvccGarbageCollect(storage::Engine* engine, Slice start,
                                      Slice end, Timestamp threshold) {
  std::string end_bound;
  if (!end.empty()) OrderedPutString(&end_bound, end);
  auto it = engine->NewBoundedIterator(EncodeIntentKey(start), end_bound);

  storage::WriteBatch batch;
  uint64_t removed = 0;
  std::string current_prefix;
  bool seen_boundary = false;  // newest version <= threshold already seen
  Slot slot;
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    VELOCE_RETURN_IF_ERROR(ParseSlot(*it, &slot));
    if (slot.prefix != Slice(current_prefix)) {
      current_prefix.assign(slot.prefix.data(), slot.prefix.size());
      seen_boundary = false;
    }
    if (slot.is_intent) continue;
    if (slot.ts > threshold) continue;  // still needed by recent readers
    if (!seen_boundary) {
      seen_boundary = true;
      // The newest version at or below the threshold: keep it unless it is
      // a tombstone (then nothing at or above threshold can see the key).
      Slice raw = it->value();
      const bool tombstone = !raw.empty() && raw[0] == kFlagTombstone;
      if (tombstone) {
        batch.Delete(it->key());
        ++removed;
      }
      continue;
    }
    // Shadowed by a newer version that all threshold+ readers see instead.
    batch.Delete(it->key());
    ++removed;
  }
  if (batch.Count() > 0) {
    VELOCE_RETURN_IF_ERROR(engine->Write(batch));
  }
  return removed;
}

}  // namespace veloce::kv
