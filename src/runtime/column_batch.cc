#include "runtime/column_batch.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <numeric>
#include <utility>

#include "common/strings.h"

namespace diablo::runtime {

namespace {

/// Must stay bit-identical to the combiner in value.cc: HashColumn and
/// the typed accumulators promise the exact Value::Hash bits.
inline size_t HashCombine(size_t seed, size_t h) {
  return seed ^ (h + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
}

inline size_t KindSeed(Value::Kind kind) {
  return static_cast<size_t>(kind) * 0x9e3779b9u;
}

inline size_t HashInt64(int64_t x) {
  return HashCombine(KindSeed(Value::Kind::kInt), std::hash<int64_t>()(x));
}

inline size_t HashDoubleBits(int64_t bits) {
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return HashCombine(KindSeed(Value::Kind::kDouble), std::hash<double>()(d));
}

inline size_t HashBoolBits(int64_t bits) {
  return HashCombine(KindSeed(Value::Kind::kBool), bits != 0 ? 1u : 0u);
}

inline int64_t DoubleToBits(double d) {
  int64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

inline double BitsToDouble(int64_t bits) {
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

ColumnTag ScalarTagOf(const Value& v) {
  switch (v.kind()) {
    case Value::Kind::kBool:
      return ColumnTag::kBool;
    case Value::Kind::kInt:
      return ColumnTag::kInt64;
    case Value::Kind::kDouble:
      return ColumnTag::kDouble;
    case Value::Kind::kString:
      return ColumnTag::kString;
    default:
      return ColumnTag::kBoxed;
  }
}

}  // namespace

const char* ColumnTagName(ColumnTag tag) {
  switch (tag) {
    case ColumnTag::kUnknown: return "unknown";
    case ColumnTag::kBool: return "bool";
    case ColumnTag::kInt64: return "int64";
    case ColumnTag::kDouble: return "double";
    case ColumnTag::kString: return "string";
    case ColumnTag::kBoxed: return "boxed";
  }
  return "?";
}

std::string ColumnSchema::ToString() const {
  return StrCat("(", ColumnTagName(key), ", ", ColumnTagName(value), ")");
}

// StringDictionary -----------------------------------------------------------

uint32_t StringDictionary::Intern(const Value& v) {
  auto [it, inserted] =
      index_.emplace(v.AsString(), static_cast<uint32_t>(values_.size()));
  if (inserted) {
    values_.push_back(v);
    hashes_.push_back(v.Hash());
  }
  return it->second;
}

// Column ---------------------------------------------------------------------

void Column::Append(const Value& v) {
  const ColumnTag vtag = ScalarTagOf(v);
  if (tag_ == ColumnTag::kUnknown) tag_ = vtag;
  if (vtag != tag_ && tag_ != ColumnTag::kBoxed) DemoteToBoxed();
  switch (tag_) {
    case ColumnTag::kBool:
      bools_.push_back(v.AsBool() ? 1 : 0);
      break;
    case ColumnTag::kInt64:
      ints_.push_back(v.AsInt());
      break;
    case ColumnTag::kDouble:
      doubles_.push_back(v.AsDouble());
      break;
    case ColumnTag::kString:
      codes_.push_back(dict_.Intern(v));
      break;
    default:
      boxed_.push_back(v);
      break;
  }
  ++size_;
}

Value Column::ValueAt(size_t i) const {
  switch (tag_) {
    case ColumnTag::kBool:
      return Value::MakeBool(bools_[i] != 0);
    case ColumnTag::kInt64:
      return Value::MakeInt(ints_[i]);
    case ColumnTag::kDouble:
      return Value::MakeDouble(doubles_[i]);
    case ColumnTag::kString:
      return dict_.value(codes_[i]);
    default:
      return boxed_[i];
  }
}

void Column::DemoteToBoxed() {
  if (tag_ == ColumnTag::kBoxed) return;
  ValueVec migrated;
  migrated.reserve(size_);
  for (size_t i = 0; i < size_; ++i) migrated.push_back(ValueAt(i));
  boxed_ = std::move(migrated);
  ints_.clear();
  doubles_.clear();
  bools_.clear();
  codes_.clear();
  tag_ = ColumnTag::kBoxed;
}

void Column::PromoteToDouble() {
  doubles_.reserve(ints_.size());
  for (int64_t x : ints_) doubles_.push_back(static_cast<double>(x));
  ints_.clear();
  tag_ = ColumnTag::kDouble;
}

// ColumnBatch ----------------------------------------------------------------

Value ColumnBatch::RowAt(size_t i) const {
  if (pairs) return Value::MakePair(keys[i], values.ValueAt(i));
  return values.ValueAt(i);
}

void ColumnBatch::EmitRows(ValueVec* out) const {
  out->reserve(out->size() + size());
  for (size_t i = 0; i < size(); ++i) out->push_back(RowAt(i));
}

namespace {

template <typename Vec>
void CompactVec(const std::vector<uint8_t>& live, Vec* vec) {
  size_t w = 0;
  for (size_t i = 0; i < vec->size(); ++i) {
    if (!live[i]) continue;
    if (w != i) (*vec)[w] = std::move((*vec)[i]);
    ++w;
  }
  vec->resize(w);
}

}  // namespace

void ColumnBatch::Compact(const std::vector<uint8_t>& live) {
  if (pairs) CompactVec(live, &keys);
  switch (values.tag()) {
    case ColumnTag::kBool:
      CompactVec(live, &values.mutable_bools());
      break;
    case ColumnTag::kInt64:
      CompactVec(live, &values.mutable_ints());
      break;
    case ColumnTag::kDouble:
      CompactVec(live, &values.mutable_doubles());
      break;
    case ColumnTag::kString:
      // Codes compact; the dictionary may keep entries no surviving row
      // references — harmless, and cheaper than re-interning.
      CompactVec(live, &values.mutable_codes());
      break;
    default:
      CompactVec(live, &values.mutable_boxed());
      break;
  }
  size_t alive = 0;
  for (uint8_t l : live) alive += l != 0 ? 1 : 0;
  values.set_size(alive);
}

// HashColumn -----------------------------------------------------------------

void HashColumn(const Column& col, std::vector<size_t>* out) {
  const size_t n = col.size();
  out->resize(n);
  switch (col.tag()) {
    case ColumnTag::kBool: {
      const auto& xs = col.bools();
      for (size_t i = 0; i < n; ++i) (*out)[i] = HashBoolBits(xs[i]);
      break;
    }
    case ColumnTag::kInt64: {
      const auto& xs = col.ints();
      const std::hash<int64_t> h;
      const size_t seed = KindSeed(Value::Kind::kInt);
      for (size_t i = 0; i < n; ++i) (*out)[i] = HashCombine(seed, h(xs[i]));
      break;
    }
    case ColumnTag::kDouble: {
      const auto& xs = col.doubles();
      const std::hash<double> h;
      const size_t seed = KindSeed(Value::Kind::kDouble);
      for (size_t i = 0; i < n; ++i) (*out)[i] = HashCombine(seed, h(xs[i]));
      break;
    }
    case ColumnTag::kString: {
      // The satellite win: one Value::Hash per distinct entry (cached at
      // intern time), an array load per row.
      const auto& codes = col.codes();
      const StringDictionary& dict = col.dict();
      for (size_t i = 0; i < n; ++i) (*out)[i] = dict.hash(codes[i]);
      break;
    }
    default: {
      const ValueVec& xs = col.boxed();
      for (size_t i = 0; i < n; ++i) (*out)[i] = xs[i].Hash();
      break;
    }
  }
}

// Kernel eligibility ---------------------------------------------------------

bool IsColumnarMapOp(BinOp op) {
  switch (op) {
    case BinOp::kAdd:
    case BinOp::kSub:
    case BinOp::kMul:
    case BinOp::kMin:
    case BinOp::kMax:
      return true;
    default:
      return false;
  }
}

bool IsColumnarCmpOp(BinOp op) {
  switch (op) {
    case BinOp::kEq:
    case BinOp::kNe:
    case BinOp::kLt:
    case BinOp::kLe:
    case BinOp::kGt:
    case BinOp::kGe:
      return true;
    default:
      return false;
  }
}

bool IsColumnarReduceOp(BinOp op) {
  switch (op) {
    case BinOp::kAdd:
    case BinOp::kMul:
    case BinOp::kMin:
    case BinOp::kMax:
      return true;
    default:
      return false;
  }
}

// Map kernel -----------------------------------------------------------------

namespace {

template <typename T>
void MapLoop(BinOp op, T y, const std::vector<uint8_t>& live,
             std::vector<T>* xs) {
  // Same expressions as NumericOp: x ⊕ y with x the row, y the operand.
  // Only live rows are touched, so a filtered-out row can never trip
  // arithmetic the boxed path would not have evaluated.
  const size_t n = xs->size();
  T* x = xs->data();
  switch (op) {
    case BinOp::kAdd:
      for (size_t i = 0; i < n; ++i)
        if (live[i]) x[i] = x[i] + y;
      break;
    case BinOp::kSub:
      for (size_t i = 0; i < n; ++i)
        if (live[i]) x[i] = x[i] - y;
      break;
    case BinOp::kMul:
      for (size_t i = 0; i < n; ++i)
        if (live[i]) x[i] = x[i] * y;
      break;
    case BinOp::kMin:
      for (size_t i = 0; i < n; ++i)
        if (live[i]) x[i] = std::min(x[i], y);
      break;
    default:  // kMax (callers pre-check IsColumnarMapOp)
      for (size_t i = 0; i < n; ++i)
        if (live[i]) x[i] = std::max(x[i], y);
      break;
  }
}

}  // namespace

bool ApplyMapKernel(BinOp op, const Value& operand,
                    const std::vector<uint8_t>& live, Column* col) {
  if (!IsColumnarMapOp(op)) return false;
  if (col->tag() == ColumnTag::kString) {
    // String concatenation shares '+': transform each dictionary entry
    // once; codes are untouched (distinct entries stay distinct under a
    // common suffix).
    if (op != BinOp::kAdd || !operand.is_string()) return false;
    StringDictionary next;
    for (uint32_t c = 0; c < col->dict().size(); ++c) {
      next.Intern(Value::MakeString(col->dict().str(c) + operand.AsString()));
    }
    col->mutable_dict() = std::move(next);
    return true;
  }
  if (!operand.is_numeric()) return false;
  if (col->tag() == ColumnTag::kInt64) {
    if (operand.is_int()) {
      MapLoop<int64_t>(op, operand.AsInt(), live, &col->mutable_ints());
      return true;
    }
    col->PromoteToDouble();  // int ⊕ double promotes, like NumericOp
  }
  if (col->tag() != ColumnTag::kDouble) return false;
  MapLoop<double>(op, operand.ToDouble(), live, &col->mutable_doubles());
  return true;
}

// Filter kernel --------------------------------------------------------------

namespace {

bool CmpVerdict(BinOp op, int cmp) {
  switch (op) {
    case BinOp::kLt: return cmp < 0;
    case BinOp::kLe: return cmp <= 0;
    case BinOp::kGt: return cmp > 0;
    default: return cmp >= 0;  // kGe
  }
}

template <typename Get>
void FilterNumericLoop(BinOp op, double y, size_t n, Get get,
                       std::vector<uint8_t>* live) {
  uint8_t* keep = live->data();
  if (op == BinOp::kEq || op == BinOp::kNe) {
    const bool want = op == BinOp::kEq;
    for (size_t i = 0; i < n; ++i)
      if (keep[i]) keep[i] = (get(i) == y) == want ? 1 : 0;
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    if (!keep[i]) continue;
    // Exactly EvalBinOp's comparison: a three-way via doubles, so NaN
    // rows land on cmp=1 (">"-side), not on a direct operator.
    const double x = get(i);
    const int cmp = x == y ? 0 : (x < y ? -1 : 1);
    keep[i] = CmpVerdict(op, cmp) ? 1 : 0;
  }
}

}  // namespace

bool ApplyFilterKernel(BinOp op, const Value& operand, const Column& col,
                       std::vector<uint8_t>* live) {
  if (!IsColumnarCmpOp(op)) return false;
  const size_t n = col.size();
  switch (col.tag()) {
    case ColumnTag::kInt64:
      if (!operand.is_numeric()) return false;
      FilterNumericLoop(
          op, operand.ToDouble(), n,
          [&](size_t i) { return static_cast<double>(col.ints()[i]); }, live);
      return true;
    case ColumnTag::kDouble:
      if (!operand.is_numeric()) return false;
      FilterNumericLoop(
          op, operand.ToDouble(), n, [&](size_t i) { return col.doubles()[i]; },
          live);
      return true;
    case ColumnTag::kString: {
      if (!operand.is_string()) return false;
      // One verdict per dictionary entry, an array load per row.
      const StringDictionary& dict = col.dict();
      std::vector<uint8_t> verdict(dict.size());
      for (uint32_t c = 0; c < dict.size(); ++c) {
        const int cmp = dict.str(c).compare(operand.AsString());
        const bool keep = op == BinOp::kEq   ? cmp == 0
                          : op == BinOp::kNe ? cmp != 0
                                             : CmpVerdict(op, cmp);
        verdict[c] = keep ? 1 : 0;
      }
      uint8_t* keep = live->data();
      const auto& codes = col.codes();
      for (size_t i = 0; i < n; ++i)
        if (keep[i]) keep[i] = verdict[codes[i]];
      return true;
    }
    case ColumnTag::kBool: {
      // Structural equality only; ordering bools is a boxed-path error.
      if ((op != BinOp::kEq && op != BinOp::kNe) || !operand.is_bool()) {
        return false;
      }
      const uint8_t y = operand.AsBool() ? 1 : 0;
      const bool want = op == BinOp::kEq;
      uint8_t* keep = live->data();
      const auto& xs = col.bools();
      for (size_t i = 0; i < n; ++i)
        if (keep[i]) keep[i] = ((xs[i] != 0) == (y != 0)) == want ? 1 : 0;
      return true;
    }
    default:
      return false;
  }
}

// TypedReduceAccumulator -----------------------------------------------------

namespace {

size_t TableSizeFor(size_t expected_keys) {
  size_t want = expected_keys + expected_keys / 3 + 1;
  size_t size = 16;
  while (size < want) size <<= 1;
  return size;
}

template <typename T>
T FoldStep(BinOp op, T acc, T v) {
  switch (op) {
    case BinOp::kAdd: return acc + v;
    case BinOp::kMul: return acc * v;
    case BinOp::kMin: return std::min(acc, v);
    default: return std::max(acc, v);  // kMax
  }
}

}  // namespace

TypedReduceAccumulator::TypedReduceAccumulator(BinOp op, size_t expected_keys)
    : op_(op) {
  slots_.assign(TableSizeFor(expected_keys), 0);
  mask_ = slots_.size() - 1;
}

size_t TypedReduceAccumulator::size() const {
  return payload_mode_ == PayloadMode::kInt64 ? pay_ints_.size()
                                              : pay_doubles_.size();
}

bool TypedReduceAccumulator::Add(const Value& row) {
  return AddInternal(row, /*trusted_hash=*/false, 0);
}

bool TypedReduceAccumulator::AddHashed(size_t hash, const Value& row) {
  return AddInternal(row, /*trusted_hash=*/true, hash);
}

bool TypedReduceAccumulator::AddInternal(const Value& row, bool trusted_hash,
                                         size_t hash) {
  if (!row.is_tuple() || row.tuple().size() != 2) return false;
  const Value& key = row.tuple()[0];
  const Value& val = row.tuple()[1];

  // Pin key and payload kinds on first sight; any deviation bounces the
  // row back to the caller un-consumed (it spills and continues boxed).
  KeyMode kmode;
  switch (key.kind()) {
    case Value::Kind::kBool: kmode = KeyMode::kBool; break;
    case Value::Kind::kInt: kmode = KeyMode::kInt64; break;
    case Value::Kind::kDouble: kmode = KeyMode::kDouble; break;
    case Value::Kind::kString: kmode = KeyMode::kString; break;
    default: return false;
  }
  PayloadMode pmode;
  switch (val.kind()) {
    case Value::Kind::kInt: pmode = PayloadMode::kInt64; break;
    case Value::Kind::kDouble: pmode = PayloadMode::kDouble; break;
    default: return false;
  }
  if (key_mode_ == KeyMode::kNone) {
    key_mode_ = kmode;
    payload_mode_ = pmode;
  } else if (kmode != key_mode_ || pmode != payload_mode_) {
    return false;
  }

  size_t entry;
  bool inserted;
  if (key_mode_ == KeyMode::kString) {
    const uint32_t code = dict_.Intern(key);
    entry = code;
    inserted = entry == size();
    if (inserted) {
      hashes_.push_back(trusted_hash ? hash : dict_.hash(code));
    }
  } else {
    int64_t bits;
    switch (key_mode_) {
      case KeyMode::kBool: bits = key.AsBool() ? 1 : 0; break;
      case KeyMode::kInt64: bits = key.AsInt(); break;
      default: bits = DoubleToBits(key.AsDouble()); break;
    }
    if (!trusted_hash) {
      switch (key_mode_) {
        case KeyMode::kBool: hash = HashBoolBits(bits); break;
        case KeyMode::kInt64: hash = HashInt64(bits); break;
        default: hash = HashDoubleBits(bits); break;
      }
    }
    const size_t before = hashes_.size();
    entry = FindOrCreateNumeric(hash, bits);
    inserted = hashes_.size() != before;
  }
  if (!AccumulateAt(entry, val, inserted)) return false;
  ++rows_;
  return true;
}

size_t TypedReduceAccumulator::FindOrCreateNumeric(size_t hash, int64_t bits) {
  if ((hashes_.size() + 1) * 4 > slots_.size() * 3) Grow();
  size_t i = RemixHash(hash) & mask_;
  for (;;) {
    const uint32_t s = slots_[i];
    if (s == 0) {
      hashes_.push_back(hash);
      key_bits_.push_back(bits);
      slots_[i] = static_cast<uint32_t>(hashes_.size());
      return hashes_.size() - 1;
    }
    const size_t e = s - 1;
    if (hashes_[e] == hash) {
      // Equality follows Value::operator==: doubles compare by value
      // (+0.0 merges with -0.0, NaN matches nothing), ints and bools by
      // bits.
      const bool eq = key_mode_ == KeyMode::kDouble
                          ? BitsToDouble(key_bits_[e]) == BitsToDouble(bits)
                          : key_bits_[e] == bits;
      if (eq) return e;
    }
    i = (i + 1) & mask_;
  }
}

void TypedReduceAccumulator::Grow() {
  slots_.assign(slots_.size() * 2, 0);
  mask_ = slots_.size() - 1;
  for (size_t idx = 0; idx < hashes_.size(); ++idx) {
    size_t i = RemixHash(hashes_[idx]) & mask_;
    while (slots_[i] != 0) i = (i + 1) & mask_;
    slots_[i] = static_cast<uint32_t>(idx + 1);
  }
}

bool TypedReduceAccumulator::AccumulateAt(size_t entry, const Value& val,
                                          bool inserted) {
  if (payload_mode_ == PayloadMode::kInt64) {
    if (inserted) {
      pay_ints_.push_back(val.AsInt());
    } else {
      pay_ints_[entry] = FoldStep<int64_t>(op_, pay_ints_[entry], val.AsInt());
    }
  } else {
    if (inserted) {
      pay_doubles_.push_back(val.AsDouble());
    } else {
      pay_doubles_[entry] =
          FoldStep<double>(op_, pay_doubles_[entry], val.AsDouble());
    }
  }
  return true;
}

Value TypedReduceAccumulator::KeyValueAt(size_t i) const {
  switch (key_mode_) {
    case KeyMode::kBool:
      return Value::MakeBool(key_bits_[i] != 0);
    case KeyMode::kInt64:
      return Value::MakeInt(key_bits_[i]);
    case KeyMode::kDouble:
      return Value::MakeDouble(BitsToDouble(key_bits_[i]));
    default:
      // String key: either this accumulator interned it (entry index ==
      // code) or it arrived as a code into the caller's dictionary
      // (BeginTyped reduce side).
      if (ext_dict_ != nullptr) {
        return (*ext_dict_)[static_cast<size_t>(key_bits_[i])];
      }
      return dict_.value(static_cast<uint32_t>(i));
  }
}

Value TypedReduceAccumulator::PayloadValueAt(size_t i) const {
  return payload_mode_ == PayloadMode::kInt64
             ? Value::MakeInt(pay_ints_[i])
             : Value::MakeDouble(pay_doubles_[i]);
}

std::vector<uint32_t> TypedReduceAccumulator::SortedOrder() const {
  std::vector<uint32_t> order(size());
  std::iota(order.begin(), order.end(), 0u);
  switch (key_mode_) {
    case KeyMode::kString:
      if (ext_dict_ != nullptr) {
        std::sort(order.begin(), order.end(), [this](uint32_t a, uint32_t b) {
          return (*ext_dict_)[static_cast<size_t>(key_bits_[a])]
                     .AsString()
                     .compare(
                         (*ext_dict_)[static_cast<size_t>(key_bits_[b])]
                             .AsString()) < 0;
        });
        break;
      }
      std::sort(order.begin(), order.end(), [this](uint32_t a, uint32_t b) {
        return dict_.str(a).compare(dict_.str(b)) < 0;
      });
      break;
    case KeyMode::kDouble:
      std::sort(order.begin(), order.end(), [this](uint32_t a, uint32_t b) {
        return BitsToDouble(key_bits_[a]) < BitsToDouble(key_bits_[b]);
      });
      break;
    default:
      std::sort(order.begin(), order.end(), [this](uint32_t a, uint32_t b) {
        return key_bits_[a] < key_bits_[b];
      });
      break;
  }
  return order;
}

void TypedReduceAccumulator::SpillTo(KeyedAccumulator<Value>* acc) const {
  for (size_t i = 0; i < size(); ++i) {
    auto ref = acc->FindOrCreate(hashes_[i], KeyValueAt(i));
    ref.payload = PayloadValueAt(i);
  }
}

void TypedReduceAccumulator::EmitSortedHashed(HashedVec* out) const {
  const std::vector<uint32_t> order = SortedOrder();
  out->reserve(out->size() + order.size());
  for (uint32_t i : order) {
    out->push_back(
        HashedRow{hashes_[i], Value::MakePair(KeyValueAt(i),
                                              PayloadValueAt(i))});
  }
}

void TypedReduceAccumulator::EmitSortedRows(ValueVec* out) const {
  const std::vector<uint32_t> order = SortedOrder();
  out->reserve(out->size() + order.size());
  for (uint32_t i : order) {
    out->push_back(Value::MakePair(KeyValueAt(i), PayloadValueAt(i)));
  }
}

void TypedRows::EmitHashed(HashedVec* out) const {
  out->reserve(out->size() + size());
  for (size_t i = 0; i < size(); ++i) {
    Value key;
    switch (key_mode) {
      case TypedKeyMode::kBool:
        key = Value::MakeBool(key_bits[i] != 0);
        break;
      case TypedKeyMode::kInt64:
        key = Value::MakeInt(key_bits[i]);
        break;
      case TypedKeyMode::kString:
        key = dict_values[static_cast<size_t>(key_bits[i])];
        break;
      default:
        key = Value::MakeDouble(BitsToDouble(key_bits[i]));
        break;
    }
    Value pay = payload_mode == TypedPayloadMode::kInt64
                    ? Value::MakeInt(pay_ints[i])
                    : Value::MakeDouble(pay_doubles[i]);
    out->push_back(
        HashedRow{hashes[i], Value::MakePair(std::move(key), std::move(pay))});
  }
}

bool TypedReduceAccumulator::EmitSortedTyped(TypedRows* out) const {
  // Externally-dictionaried accumulators (BeginTyped reduce side) emit
  // boxed rows; only self-interned state serializes back to TypedRows.
  if (key_mode_ == KeyMode::kString && ext_dict_ != nullptr) return false;
  const std::vector<uint32_t> order = SortedOrder();
  out->key_mode = key_mode_;
  out->payload_mode = payload_mode_;
  out->hashes.reserve(order.size());
  out->key_bits.reserve(order.size());
  if (payload_mode_ == PayloadMode::kInt64) {
    out->pay_ints.reserve(order.size());
  } else if (payload_mode_ == PayloadMode::kDouble) {
    out->pay_doubles.reserve(order.size());
  }
  if (key_mode_ == KeyMode::kString) {
    // The dictionary travels with the batch: entry index == code, so
    // the rows' key_bits below are codes into this copy. Value payloads
    // are shared, not deep-copied.
    out->dict_values.reserve(size());
    out->dict_hashes.reserve(size());
    for (uint32_t c = 0; c < size(); ++c) {
      out->dict_values.push_back(dict_.value(c));
      out->dict_hashes.push_back(dict_.hash(c));
    }
  }
  for (uint32_t i : order) {
    out->hashes.push_back(hashes_[i]);
    if (key_mode_ == KeyMode::kString) {
      out->key_bits.push_back(static_cast<int64_t>(i));
    } else {
      out->key_bits.push_back(key_bits_[i]);
    }
    if (payload_mode_ == PayloadMode::kInt64) {
      out->pay_ints.push_back(pay_ints_[i]);
    } else {
      out->pay_doubles.push_back(pay_doubles_[i]);
    }
  }
  return true;
}

bool TypedReduceAccumulator::BeginTyped(TypedKeyMode kmode,
                                        TypedPayloadMode pmode,
                                        const std::vector<Value>* dict) {
  if (kmode == KeyMode::kString) {
    if (dict == nullptr) return false;
    ext_dict_ = dict;
  }
  if (key_mode_ == KeyMode::kNone && kmode != KeyMode::kNone) {
    key_mode_ = kmode;
    payload_mode_ = pmode;
    return true;
  }
  return key_mode_ == kmode && payload_mode_ == pmode;
}

void TypedReduceAccumulator::AddHashedBits(size_t hash, int64_t key_bits,
                                           int64_t pay_int,
                                           double pay_double) {
  const size_t before = hashes_.size();
  const size_t entry = FindOrCreateNumeric(hash, key_bits);
  const bool inserted = hashes_.size() != before;
  if (payload_mode_ == PayloadMode::kInt64) {
    if (inserted) {
      pay_ints_.push_back(pay_int);
    } else {
      pay_ints_[entry] = FoldStep<int64_t>(op_, pay_ints_[entry], pay_int);
    }
  } else {
    if (inserted) {
      pay_doubles_.push_back(pay_double);
    } else {
      pay_doubles_[entry] = FoldStep<double>(op_, pay_doubles_[entry],
                                             pay_double);
    }
  }
  ++rows_;
}

// TypedFold ------------------------------------------------------------------

bool TypedFold::Add(const Value& v) {
  if (!v.is_numeric()) return false;
  ++rows_;
  if (mode_ == Mode::kNone) {
    if (v.is_int()) {
      mode_ = Mode::kInt64;
      int_acc_ = v.AsInt();
    } else {
      mode_ = Mode::kDouble;
      double_acc_ = v.AsDouble();
    }
    return true;
  }
  if (mode_ == Mode::kInt64 && v.is_int()) {
    int_acc_ = FoldStep<int64_t>(op_, int_acc_, v.AsInt());
    return true;
  }
  // Mixed int/double folds promote to double, exactly like NumericOp.
  if (mode_ == Mode::kInt64) {
    double_acc_ = static_cast<double>(int_acc_);
    mode_ = Mode::kDouble;
  }
  double_acc_ = FoldStep<double>(op_, double_acc_, v.ToDouble());
  return true;
}

Value TypedFold::Result() const {
  return mode_ == Mode::kInt64 ? Value::MakeInt(int_acc_)
                               : Value::MakeDouble(double_acc_);
}

}  // namespace diablo::runtime
