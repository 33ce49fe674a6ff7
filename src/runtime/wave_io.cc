#include "runtime/wave_io.h"

#include <utility>

#include "common/strings.h"
#include "runtime/serialize.h"

namespace diablo::runtime {

namespace {

// One byte per field marks its presence, so a payload produced by a
// mismatched (or corrupted) wave shape fails decoding instead of being
// installed into the wrong slot.
enum FieldFlag : char {
  kAbsent = 0,
  kPresent = 1,
};

Status CheckTask(int task, size_t size, const char* field) {
  if (task < 0 || static_cast<size_t>(task) >= size) {
    return Status::RuntimeError(
        StrCat("task ", task, " out of range for wave slot '", field, "' (",
               size, " tasks)"));
  }
  return Status::OK();
}

StatusOr<bool> GetFlag(std::string_view data, size_t* offset,
                       bool expected_present, const char* field) {
  if (*offset >= data.size()) {
    return Status::RuntimeError("truncated task-slot payload");
  }
  char flag = data[(*offset)++];
  if (flag != kAbsent && flag != kPresent) {
    return Status::RuntimeError(
        StrCat("corrupt presence flag for wave slot '", field, "'"));
  }
  const bool present = flag == kPresent;
  if (present != expected_present) {
    return Status::RuntimeError(
        StrCat("task-slot payload shape mismatch on '", field, "': ",
               present ? "present" : "absent", " on the wire, ",
               expected_present ? "present" : "absent", " in the wave"));
  }
  return present;
}

/// Cheap bound shared by every count prefix below: each element costs at
/// least one byte, so a count larger than the remaining payload is a
/// corrupt (oversized) length prefix.
Status CheckCount(uint32_t n, std::string_view data, size_t offset) {
  if (static_cast<size_t>(n) > data.size() - offset) {
    return Status::RuntimeError("oversized length prefix in task-slot payload");
  }
  return Status::OK();
}

void PutNumVec(const std::vector<int64_t>& v, std::string* out) {
  PutWireU32(static_cast<uint32_t>(v.size()), out);
  for (int64_t x : v) PutWireU64(static_cast<uint64_t>(x), out);
}

StatusOr<std::vector<int64_t>> GetNumVec(std::string_view data,
                                         size_t* offset) {
  DIABLO_ASSIGN_OR_RETURN(uint32_t n, GetWireU32(data, offset));
  DIABLO_RETURN_IF_ERROR(CheckCount(n, data, *offset));
  std::vector<int64_t> v;
  v.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    DIABLO_ASSIGN_OR_RETURN(uint64_t x, GetWireU64(data, offset));
    v.push_back(static_cast<int64_t>(x));
  }
  return v;
}

}  // namespace

StatusOr<std::string> EncodeTaskSlots(const WaveSlots& slots, int task) {
  std::string out;
  if (slots.rows != nullptr) {
    DIABLO_RETURN_IF_ERROR(CheckTask(task, slots.rows->size(), "rows"));
    out.push_back(kPresent);
    const ValueVec& rows = (*slots.rows)[task];
    PutWireU32(static_cast<uint32_t>(rows.size()), &out);
    for (const Value& v : rows) SerializeValue(v, &out);
  } else {
    out.push_back(kAbsent);
  }
  if (slots.hashed != nullptr) {
    DIABLO_RETURN_IF_ERROR(CheckTask(task, slots.hashed->size(), "hashed"));
    out.push_back(kPresent);
    SerializeHashedVec((*slots.hashed)[task], &out);
  } else {
    out.push_back(kAbsent);
  }
  if (slots.buckets != nullptr) {
    DIABLO_RETURN_IF_ERROR(CheckTask(task, slots.buckets->size(), "buckets"));
    out.push_back(kPresent);
    const std::vector<HashedVec>& buckets = (*slots.buckets)[task];
    PutWireU32(static_cast<uint32_t>(buckets.size()), &out);
    for (const HashedVec& bucket : buckets) SerializeHashedVec(bucket, &out);
  } else {
    out.push_back(kAbsent);
  }
  if (slots.partials != nullptr) {
    DIABLO_RETURN_IF_ERROR(CheckTask(task, slots.partials->size(), "partials"));
    out.push_back(kPresent);
    const std::optional<Value>& partial = (*slots.partials)[task];
    out.push_back(partial.has_value() ? kPresent : kAbsent);
    if (partial.has_value()) SerializeValue(*partial, &out);
  } else {
    out.push_back(kAbsent);
  }
  if (slots.nums != nullptr) {
    DIABLO_RETURN_IF_ERROR(CheckTask(task, slots.nums->size(), "nums"));
    out.push_back(kPresent);
    PutWireU64(static_cast<uint64_t>((*slots.nums)[task]), &out);
  } else {
    out.push_back(kAbsent);
  }
  if (slots.num_vecs != nullptr) {
    DIABLO_RETURN_IF_ERROR(CheckTask(task, slots.num_vecs->size(), "num_vecs"));
    out.push_back(kPresent);
    PutNumVec((*slots.num_vecs)[task], &out);
  } else {
    out.push_back(kAbsent);
  }
  if (slots.tallies != nullptr) {
    DIABLO_RETURN_IF_ERROR(CheckTask(task, slots.tallies->size(), "tallies"));
    out.push_back(kPresent);
    const ChainTally& tally = (*slots.tallies)[task];
    PutNumVec(tally.rows, &out);
    PutNumVec(tally.sample_bytes, &out);
    PutWireU64(static_cast<uint64_t>(tally.columnar_batches), &out);
    PutWireU64(static_cast<uint64_t>(tally.columnar_rows_fallback), &out);
    PutWireU64(static_cast<uint64_t>(tally.accumulator_bytes), &out);
  } else {
    out.push_back(kAbsent);
  }
  if (slots.col_batches != nullptr) {
    DIABLO_RETURN_IF_ERROR(
        CheckTask(task, slots.col_batches->size(), "col_batches"));
    out.push_back(kPresent);
    SerializeColumnBatch((*slots.col_batches)[task], &out);
  } else {
    out.push_back(kAbsent);
  }
  return out;
}

Status DecodeTaskSlots(const WaveSlots& slots, int task,
                       std::string_view bytes) {
  size_t offset = 0;
  DIABLO_ASSIGN_OR_RETURN(
      bool has_rows, GetFlag(bytes, &offset, slots.rows != nullptr, "rows"));
  if (has_rows) {
    DIABLO_RETURN_IF_ERROR(CheckTask(task, slots.rows->size(), "rows"));
    DIABLO_ASSIGN_OR_RETURN(uint32_t n, GetWireU32(bytes, &offset));
    DIABLO_RETURN_IF_ERROR(CheckCount(n, bytes, offset));
    ValueVec rows;
    rows.reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
      DIABLO_ASSIGN_OR_RETURN(Value v, DeserializeValue(bytes, &offset));
      rows.push_back(std::move(v));
    }
    (*slots.rows)[task] = std::move(rows);
  }
  DIABLO_ASSIGN_OR_RETURN(
      bool has_hashed,
      GetFlag(bytes, &offset, slots.hashed != nullptr, "hashed"));
  if (has_hashed) {
    DIABLO_RETURN_IF_ERROR(CheckTask(task, slots.hashed->size(), "hashed"));
    DIABLO_ASSIGN_OR_RETURN(HashedVec rows,
                            DeserializeHashedVec(bytes, &offset));
    (*slots.hashed)[task] = std::move(rows);
  }
  DIABLO_ASSIGN_OR_RETURN(
      bool has_buckets,
      GetFlag(bytes, &offset, slots.buckets != nullptr, "buckets"));
  if (has_buckets) {
    DIABLO_RETURN_IF_ERROR(CheckTask(task, slots.buckets->size(), "buckets"));
    DIABLO_ASSIGN_OR_RETURN(uint32_t n, GetWireU32(bytes, &offset));
    DIABLO_RETURN_IF_ERROR(CheckCount(n, bytes, offset));
    std::vector<HashedVec> buckets;
    buckets.reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
      DIABLO_ASSIGN_OR_RETURN(HashedVec bucket,
                              DeserializeHashedVec(bytes, &offset));
      buckets.push_back(std::move(bucket));
    }
    (*slots.buckets)[task] = std::move(buckets);
  }
  DIABLO_ASSIGN_OR_RETURN(
      bool has_partial,
      GetFlag(bytes, &offset, slots.partials != nullptr, "partials"));
  if (has_partial) {
    DIABLO_RETURN_IF_ERROR(CheckTask(task, slots.partials->size(), "partials"));
    // The inner flag carries real information — an empty partition
    // reduces to "no partial" — so both values are legal here; only a
    // byte that is neither flag is corruption.
    if (offset >= bytes.size()) {
      return Status::RuntimeError("truncated task-slot payload");
    }
    char has_value = bytes[offset++];
    if (has_value == kPresent) {
      DIABLO_ASSIGN_OR_RETURN(Value v, DeserializeValue(bytes, &offset));
      (*slots.partials)[task] = std::move(v);
    } else if (has_value == kAbsent) {
      (*slots.partials)[task].reset();
    } else {
      return Status::RuntimeError(
          "corrupt presence flag for wave slot 'partials.value'");
    }
  }
  DIABLO_ASSIGN_OR_RETURN(
      bool has_num, GetFlag(bytes, &offset, slots.nums != nullptr, "nums"));
  if (has_num) {
    DIABLO_RETURN_IF_ERROR(CheckTask(task, slots.nums->size(), "nums"));
    DIABLO_ASSIGN_OR_RETURN(uint64_t x, GetWireU64(bytes, &offset));
    (*slots.nums)[task] = static_cast<int64_t>(x);
  }
  DIABLO_ASSIGN_OR_RETURN(
      bool has_num_vec,
      GetFlag(bytes, &offset, slots.num_vecs != nullptr, "num_vecs"));
  if (has_num_vec) {
    DIABLO_RETURN_IF_ERROR(CheckTask(task, slots.num_vecs->size(), "num_vecs"));
    DIABLO_ASSIGN_OR_RETURN((*slots.num_vecs)[task], GetNumVec(bytes, &offset));
  }
  DIABLO_ASSIGN_OR_RETURN(
      bool has_tally,
      GetFlag(bytes, &offset, slots.tallies != nullptr, "tallies"));
  if (has_tally) {
    DIABLO_RETURN_IF_ERROR(CheckTask(task, slots.tallies->size(), "tallies"));
    ChainTally tally;
    DIABLO_ASSIGN_OR_RETURN(tally.rows, GetNumVec(bytes, &offset));
    DIABLO_ASSIGN_OR_RETURN(tally.sample_bytes, GetNumVec(bytes, &offset));
    DIABLO_ASSIGN_OR_RETURN(uint64_t cb, GetWireU64(bytes, &offset));
    DIABLO_ASSIGN_OR_RETURN(uint64_t cf, GetWireU64(bytes, &offset));
    DIABLO_ASSIGN_OR_RETURN(uint64_t ab, GetWireU64(bytes, &offset));
    tally.columnar_batches = static_cast<int64_t>(cb);
    tally.columnar_rows_fallback = static_cast<int64_t>(cf);
    tally.accumulator_bytes = static_cast<int64_t>(ab);
    (*slots.tallies)[task] = std::move(tally);
  }
  DIABLO_ASSIGN_OR_RETURN(
      bool has_batch,
      GetFlag(bytes, &offset, slots.col_batches != nullptr, "col_batches"));
  if (has_batch) {
    DIABLO_RETURN_IF_ERROR(
        CheckTask(task, slots.col_batches->size(), "col_batches"));
    DIABLO_ASSIGN_OR_RETURN(ColumnBatch batch,
                            DeserializeColumnBatch(bytes, &offset));
    (*slots.col_batches)[task] = std::move(batch);
  }
  if (offset != bytes.size()) {
    return Status::RuntimeError("trailing bytes after task-slot payload");
  }
  return Status::OK();
}

}  // namespace diablo::runtime
