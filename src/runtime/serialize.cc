#include "runtime/serialize.h"

#include <cstring>

#include "common/strings.h"

namespace diablo::runtime {

namespace {

enum Tag : char {
  kTagUnit = 'u',
  kTagBool = 'b',
  kTagInt = 'i',
  kTagDouble = 'd',
  kTagString = 's',
  kTagTuple = 't',
  kTagRecord = 'r',
  kTagBag = 'g',
};

Status Truncated() {
  return Status::RuntimeError("truncated serialized value");
}

/// Nesting bound for the decoder. Honest encodings never come close
/// (engine rows are pairs of scalars/bags, depth < 10); a corrupted or
/// adversarial buffer full of nested tuple headers must fail with a
/// Status instead of overflowing the stack.
constexpr int kMaxDeserializeDepth = 64;

}  // namespace

void PutWireU32(uint32_t v, std::string* out) {
  char buf[4];
  buf[0] = static_cast<char>(v & 0xff);
  buf[1] = static_cast<char>((v >> 8) & 0xff);
  buf[2] = static_cast<char>((v >> 16) & 0xff);
  buf[3] = static_cast<char>((v >> 24) & 0xff);
  out->append(buf, 4);
}

void PutWireU64(uint64_t v, std::string* out) {
  PutWireU32(static_cast<uint32_t>(v & 0xffffffffu), out);
  PutWireU32(static_cast<uint32_t>(v >> 32), out);
}

StatusOr<uint32_t> GetWireU32(std::string_view data, size_t* offset) {
  if (*offset + 4 > data.size()) return Truncated();
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | static_cast<uint8_t>(data[*offset + static_cast<size_t>(i)]);
  }
  *offset += 4;
  return v;
}

StatusOr<uint64_t> GetWireU64(std::string_view data, size_t* offset) {
  DIABLO_ASSIGN_OR_RETURN(uint32_t lo, GetWireU32(data, offset));
  DIABLO_ASSIGN_OR_RETURN(uint32_t hi, GetWireU32(data, offset));
  return (static_cast<uint64_t>(hi) << 32) | lo;
}

namespace {

// Local aliases keep the value codec below unchanged.
void PutU32(uint32_t v, std::string* out) { PutWireU32(v, out); }
void PutU64(uint64_t v, std::string* out) { PutWireU64(v, out); }
StatusOr<uint32_t> GetU32(std::string_view data, size_t* offset) {
  return GetWireU32(data, offset);
}
StatusOr<uint64_t> GetU64(std::string_view data, size_t* offset) {
  return GetWireU64(data, offset);
}

}  // namespace

void SerializeValue(const Value& v, std::string* out) {
  switch (v.kind()) {
    case Value::Kind::kUnit:
      out->push_back(kTagUnit);
      return;
    case Value::Kind::kBool:
      out->push_back(kTagBool);
      out->push_back(v.AsBool() ? 1 : 0);
      return;
    case Value::Kind::kInt:
      out->push_back(kTagInt);
      PutU64(static_cast<uint64_t>(v.AsInt()), out);
      return;
    case Value::Kind::kDouble: {
      out->push_back(kTagDouble);
      uint64_t bits;
      double d = v.AsDouble();
      std::memcpy(&bits, &d, sizeof(bits));
      PutU64(bits, out);
      return;
    }
    case Value::Kind::kString:
      out->push_back(kTagString);
      PutU32(static_cast<uint32_t>(v.AsString().size()), out);
      out->append(v.AsString());
      return;
    case Value::Kind::kTuple:
      out->push_back(kTagTuple);
      PutU32(static_cast<uint32_t>(v.tuple().size()), out);
      for (const Value& elem : v.tuple()) SerializeValue(elem, out);
      return;
    case Value::Kind::kRecord:
      out->push_back(kTagRecord);
      PutU32(static_cast<uint32_t>(v.fields().size()), out);
      for (const auto& [name, field] : v.fields()) {
        PutU32(static_cast<uint32_t>(name.size()), out);
        out->append(name);
        SerializeValue(field, out);
      }
      return;
    case Value::Kind::kBag:
      out->push_back(kTagBag);
      PutU32(static_cast<uint32_t>(v.bag().size()), out);
      for (const Value& elem : v.bag()) SerializeValue(elem, out);
      return;
  }
}

std::string Serialize(const Value& v) {
  std::string out;
  SerializeValue(v, &out);
  return out;
}

namespace {

StatusOr<Value> DeserializeValueAtDepth(std::string_view data, size_t* offset,
                                        int depth) {
  if (depth > kMaxDeserializeDepth) {
    return Status::RuntimeError("serialized value nested too deeply");
  }
  if (*offset >= data.size()) return Truncated();
  char tag = data[(*offset)++];
  switch (tag) {
    case kTagUnit:
      return Value::MakeUnit();
    case kTagBool: {
      if (*offset >= data.size()) return Truncated();
      char b = data[(*offset)++];
      if (b != 0 && b != 1) {
        return Status::RuntimeError("corrupt bool in serialized value");
      }
      return Value::MakeBool(b == 1);
    }
    case kTagInt: {
      DIABLO_ASSIGN_OR_RETURN(uint64_t bits, GetU64(data, offset));
      return Value::MakeInt(static_cast<int64_t>(bits));
    }
    case kTagDouble: {
      DIABLO_ASSIGN_OR_RETURN(uint64_t bits, GetU64(data, offset));
      double d;
      std::memcpy(&d, &bits, sizeof(d));
      return Value::MakeDouble(d);
    }
    case kTagString: {
      DIABLO_ASSIGN_OR_RETURN(uint32_t len, GetU32(data, offset));
      if (*offset + len > data.size()) return Truncated();
      std::string s(data.substr(*offset, len));
      *offset += len;
      return Value::MakeString(std::move(s));
    }
    case kTagTuple:
    case kTagBag: {
      DIABLO_ASSIGN_OR_RETURN(uint32_t n, GetU32(data, offset));
      if (static_cast<size_t>(n) > data.size() - *offset) {
        return Truncated();  // cheap sanity bound: >=1 byte per element
      }
      ValueVec elems;
      elems.reserve(n);
      for (uint32_t i = 0; i < n; ++i) {
        DIABLO_ASSIGN_OR_RETURN(
            Value v, DeserializeValueAtDepth(data, offset, depth + 1));
        elems.push_back(std::move(v));
      }
      return tag == kTagTuple ? Value::MakeTuple(std::move(elems))
                              : Value::MakeBag(std::move(elems));
    }
    case kTagRecord: {
      DIABLO_ASSIGN_OR_RETURN(uint32_t n, GetU32(data, offset));
      if (static_cast<size_t>(n) > data.size() - *offset) return Truncated();
      FieldVec fields;
      fields.reserve(n);
      for (uint32_t i = 0; i < n; ++i) {
        DIABLO_ASSIGN_OR_RETURN(uint32_t len, GetU32(data, offset));
        if (*offset + len > data.size()) return Truncated();
        std::string name(data.substr(*offset, len));
        *offset += len;
        DIABLO_ASSIGN_OR_RETURN(
            Value v, DeserializeValueAtDepth(data, offset, depth + 1));
        fields.emplace_back(std::move(name), std::move(v));
      }
      return Value::MakeRecord(std::move(fields));
    }
    default:
      return Status::RuntimeError(
          StrCat("unknown tag '", std::string(1, tag),
                 "' in serialized value"));
  }
}

}  // namespace

StatusOr<Value> DeserializeValue(std::string_view data, size_t* offset) {
  return DeserializeValueAtDepth(data, offset, 0);
}

StatusOr<Value> Deserialize(std::string_view data) {
  size_t offset = 0;
  DIABLO_ASSIGN_OR_RETURN(Value v, DeserializeValue(data, &offset));
  if (offset != data.size()) {
    return Status::RuntimeError("trailing bytes after serialized value");
  }
  return v;
}

namespace {

/// Shared bound for the column-batch decoder: every element of a typed
/// payload costs at least one byte, so a count prefix larger than the
/// remaining buffer is corrupt and must fail before any reserve().
Status CheckBatchCount(uint32_t n, std::string_view data, size_t offset,
                       const char* what) {
  if (static_cast<size_t>(n) > data.size() - offset) {
    return Status::RuntimeError(
        StrCat("oversized ", what, " count in column batch"));
  }
  return Status::OK();
}

}  // namespace

void SerializeColumnBatch(const ColumnBatch& batch, std::string* out) {
  const Column& col = batch.values;
  PutWireU32(static_cast<uint32_t>(col.size()), out);
  out->push_back(batch.pairs ? 1 : 0);
  if (batch.pairs) {
    for (const Value& k : batch.keys) SerializeValue(k, out);
  }
  out->push_back(static_cast<char>(col.tag()));
  switch (col.tag()) {
    case ColumnTag::kUnknown:
      break;  // empty column, no payload
    case ColumnTag::kBool:
      for (uint8_t b : col.bools()) out->push_back(b ? 1 : 0);
      break;
    case ColumnTag::kInt64:
      for (int64_t x : col.ints()) {
        PutWireU64(static_cast<uint64_t>(x), out);
      }
      break;
    case ColumnTag::kDouble:
      for (double d : col.doubles()) {
        uint64_t bits;
        std::memcpy(&bits, &d, sizeof(bits));
        PutWireU64(bits, out);
      }
      break;
    case ColumnTag::kString: {
      const StringDictionary& dict = col.dict();
      PutWireU32(static_cast<uint32_t>(dict.size()), out);
      for (uint32_t c = 0; c < dict.size(); ++c) {
        const std::string& s = dict.str(c);
        PutWireU32(static_cast<uint32_t>(s.size()), out);
        out->append(s);
      }
      for (uint32_t code : col.codes()) PutWireU32(code, out);
      break;
    }
    case ColumnTag::kBoxed:
      for (const Value& v : col.boxed()) SerializeValue(v, out);
      break;
  }
}

StatusOr<ColumnBatch> DeserializeColumnBatch(std::string_view data,
                                             size_t* offset) {
  DIABLO_ASSIGN_OR_RETURN(uint32_t n, GetWireU32(data, offset));
  DIABLO_RETURN_IF_ERROR(CheckBatchCount(n, data, *offset, "row"));
  if (*offset >= data.size()) return Truncated();
  char pairs_flag = data[(*offset)++];
  if (pairs_flag != 0 && pairs_flag != 1) {
    return Status::RuntimeError("corrupt pairs flag in column batch");
  }
  ColumnBatch batch;
  batch.pairs = pairs_flag == 1;
  if (batch.pairs) {
    batch.keys.reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
      DIABLO_ASSIGN_OR_RETURN(Value k, DeserializeValue(data, offset));
      batch.keys.push_back(std::move(k));
    }
  }
  if (*offset >= data.size()) return Truncated();
  uint8_t tag_byte = static_cast<uint8_t>(data[(*offset)++]);
  if (tag_byte > static_cast<uint8_t>(ColumnTag::kBoxed)) {
    return Status::RuntimeError(
        StrCat("unknown column tag ", static_cast<int>(tag_byte),
               " in column batch"));
  }
  ColumnTag tag = static_cast<ColumnTag>(tag_byte);
  Column& col = batch.values;
  if (tag == ColumnTag::kUnknown && n != 0) {
    return Status::RuntimeError("untagged non-empty column in column batch");
  }
  switch (tag) {
    case ColumnTag::kUnknown:
      break;
    case ColumnTag::kBool: {
      auto& bools = col.mutable_bools();
      bools.reserve(n);
      for (uint32_t i = 0; i < n; ++i) {
        if (*offset >= data.size()) return Truncated();
        char b = data[(*offset)++];
        if (b != 0 && b != 1) {
          return Status::RuntimeError("corrupt bool in column batch");
        }
        bools.push_back(static_cast<uint8_t>(b));
      }
      break;
    }
    case ColumnTag::kInt64: {
      auto& ints = col.mutable_ints();
      ints.reserve(n);
      for (uint32_t i = 0; i < n; ++i) {
        DIABLO_ASSIGN_OR_RETURN(uint64_t bits, GetWireU64(data, offset));
        ints.push_back(static_cast<int64_t>(bits));
      }
      break;
    }
    case ColumnTag::kDouble: {
      auto& doubles = col.mutable_doubles();
      doubles.reserve(n);
      for (uint32_t i = 0; i < n; ++i) {
        DIABLO_ASSIGN_OR_RETURN(uint64_t bits, GetWireU64(data, offset));
        double d;
        std::memcpy(&d, &bits, sizeof(d));
        doubles.push_back(d);
      }
      break;
    }
    case ColumnTag::kString: {
      DIABLO_ASSIGN_OR_RETURN(uint32_t dict_size, GetWireU32(data, offset));
      DIABLO_RETURN_IF_ERROR(
          CheckBatchCount(dict_size, data, *offset, "dictionary"));
      StringDictionary& dict = col.mutable_dict();
      for (uint32_t c = 0; c < dict_size; ++c) {
        DIABLO_ASSIGN_OR_RETURN(uint32_t len, GetWireU32(data, offset));
        if (*offset + len > data.size()) return Truncated();
        uint32_t code = dict.Intern(
            Value::MakeString(std::string(data.substr(*offset, len))));
        *offset += len;
        // A duplicate entry re-interns to an earlier code; codes pointing
        // at it would decode to a batch whose dictionary disagrees with
        // the encoder's, so reject the buffer as corrupt.
        if (code != c) {
          return Status::RuntimeError(
              "duplicate dictionary entry in column batch");
        }
      }
      auto& codes = col.mutable_codes();
      codes.reserve(n);
      for (uint32_t i = 0; i < n; ++i) {
        DIABLO_ASSIGN_OR_RETURN(uint32_t code, GetWireU32(data, offset));
        if (code >= dict_size) {
          return Status::RuntimeError(
              "dictionary code out of range in column batch");
        }
        codes.push_back(code);
      }
      break;
    }
    case ColumnTag::kBoxed: {
      auto& boxed = col.mutable_boxed();
      boxed.reserve(n);
      for (uint32_t i = 0; i < n; ++i) {
        DIABLO_ASSIGN_OR_RETURN(Value v, DeserializeValue(data, offset));
        boxed.push_back(std::move(v));
      }
      break;
    }
  }
  col.set_tag(tag);
  col.set_size(n);
  return batch;
}

void SerializeHashedRow(const HashedRow& hr, std::string* out) {
  PutWireU64(static_cast<uint64_t>(hr.hash), out);
  SerializeValue(hr.row, out);
}

StatusOr<HashedRow> DeserializeHashedRow(std::string_view data,
                                         size_t* offset) {
  DIABLO_ASSIGN_OR_RETURN(uint64_t hash, GetWireU64(data, offset));
  DIABLO_ASSIGN_OR_RETURN(Value row, DeserializeValue(data, offset));
  return HashedRow{static_cast<size_t>(hash), std::move(row)};
}

void SerializeHashedVec(const HashedVec& rows, std::string* out) {
  PutWireU32(static_cast<uint32_t>(rows.size()), out);
  for (const HashedRow& hr : rows) SerializeHashedRow(hr, out);
}

StatusOr<HashedVec> DeserializeHashedVec(std::string_view data,
                                         size_t* offset) {
  DIABLO_ASSIGN_OR_RETURN(uint32_t n, GetWireU32(data, offset));
  // Every row is at least 9 bytes (u64 hash + one tag); a length prefix
  // promising more rows than the buffer could hold is corrupt, and must
  // fail before any reserve() trusts it.
  if (static_cast<size_t>(n) > (data.size() - *offset) / 9) {
    return Status::RuntimeError(
        "oversized length prefix in hashed-row batch");
  }
  HashedVec rows;
  rows.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    DIABLO_ASSIGN_OR_RETURN(HashedRow hr, DeserializeHashedRow(data, offset));
    rows.push_back(std::move(hr));
  }
  return rows;
}

}  // namespace diablo::runtime
