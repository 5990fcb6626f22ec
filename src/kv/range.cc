#include "kv/range.h"

namespace veloce::kv {

void TimestampCache::RecordRead(Slice key, Timestamp ts, TxnId reader) {
  if (ts <= low_water_) return;
  auto it = points_.find(key.view());
  if (it == points_.end()) {
    if (points_.size() >= kMaxPoints) {
      // Fold everything into the (ownerless) low-water mark and start over.
      for (const auto& [k, stamp] : points_) {
        if (low_water_ < stamp.ts) low_water_ = stamp.ts;
      }
      points_.clear();
      if (ts <= low_water_) return;
    }
    points_.emplace(key.ToString(), ReadStamp{ts, reader});
  } else {
    it->second.Add(ts, reader);
  }
}

void TimestampCache::RecordReadSpan(Slice start, Slice end, Timestamp ts,
                                    TxnId reader) {
  if (ts <= low_water_) return;
  if (spans_.size() >= kMaxSpans) {
    for (const auto& span : spans_) {
      if (low_water_ < span.stamp.ts) low_water_ = span.stamp.ts;
    }
    spans_.clear();
    if (ts <= low_water_) return;
  }
  spans_.push_back({start.ToString(), end.ToString(), ReadStamp{ts, reader}});
}

void TimestampCache::MergeFrom(const TimestampCache& other) {
  if (low_water_ < other.low_water_) low_water_ = other.low_water_;
  for (const auto& [k, stamp] : other.points_) RecordRead(k, stamp.ts, stamp.reader);
  for (const auto& span : other.spans_) {
    RecordReadSpan(span.start, span.end, span.stamp.ts, span.stamp.reader);
  }
}

TimestampCache::MaxRead TimestampCache::MaxReadTimestamp(Slice key,
                                                         TxnId writer) const {
  ReadStamp max{low_water_, 0};
  auto it = points_.find(key.view());
  if (it != points_.end()) max.Add(it->second.ts, it->second.reader);
  for (const auto& span : spans_) {
    if (Slice(span.start) <= key && (span.end.empty() || key < Slice(span.end))) {
      max.Add(span.stamp.ts, span.stamp.reader);
    }
  }
  return {max.ts, writer != 0 && max.reader == writer};
}

}  // namespace veloce::kv
