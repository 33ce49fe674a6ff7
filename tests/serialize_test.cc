// Tests for the binary Value codec: round trips over every kind,
// randomized deep values, corruption rejection, determinism, and the
// engine's serialize-shuffles mode.

#include "runtime/serialize.h"

#include <gtest/gtest.h>

#include <random>

#include "runtime/engine.h"
#include "runtime/operators.h"

namespace diablo::runtime {
namespace {

Value I(int64_t v) { return Value::MakeInt(v); }
Value D(double v) { return Value::MakeDouble(v); }

void ExpectRoundTrip(const Value& v) {
  std::string wire = Serialize(v);
  auto back = Deserialize(wire);
  ASSERT_TRUE(back.ok()) << v.ToString() << ": "
                         << back.status().ToString();
  EXPECT_EQ(*back, v) << "wire size " << wire.size();
}

TEST(Serialize, AllKindsRoundTrip) {
  ExpectRoundTrip(Value::MakeUnit());
  ExpectRoundTrip(Value::MakeBool(true));
  ExpectRoundTrip(Value::MakeBool(false));
  ExpectRoundTrip(I(0));
  ExpectRoundTrip(I(-1));
  ExpectRoundTrip(I(std::numeric_limits<int64_t>::min()));
  ExpectRoundTrip(I(std::numeric_limits<int64_t>::max()));
  ExpectRoundTrip(D(0.0));
  ExpectRoundTrip(D(-3.25e-300));
  ExpectRoundTrip(D(std::numeric_limits<double>::infinity()));
  ExpectRoundTrip(Value::MakeString(""));
  ExpectRoundTrip(Value::MakeString("hello \x01\x02 world"));
  ExpectRoundTrip(Value::MakeTuple({}));
  ExpectRoundTrip(Value::MakeTuple({I(1), D(2.5), Value::MakeString("x")}));
  ExpectRoundTrip(Value::MakeRecord({{"red", I(1)}, {"green", I(2)}}));
  ExpectRoundTrip(Value::EmptyBag());
  ExpectRoundTrip(Value::MakeBag({I(1), I(2), I(3)}));
}

Value RandomValue(std::mt19937_64& rng, int depth) {
  switch (rng() % (depth > 0 ? 7 : 4)) {
    case 0:
      return I(static_cast<int64_t>(rng()));
    case 1:
      return D(static_cast<double>(rng()) / 7.3);
    case 2:
      return Value::MakeBool(rng() % 2 == 0);
    case 3: {
      std::string s;
      for (uint64_t i = 0; i < rng() % 12; ++i) {
        s.push_back(static_cast<char>('a' + rng() % 26));
      }
      return Value::MakeString(std::move(s));
    }
    case 4: {
      ValueVec elems;
      for (uint64_t i = 0; i < 1 + rng() % 3; ++i) {
        elems.push_back(RandomValue(rng, depth - 1));
      }
      return Value::MakeTuple(std::move(elems));
    }
    case 5: {
      ValueVec elems;
      for (uint64_t i = 0; i < rng() % 4; ++i) {
        elems.push_back(RandomValue(rng, depth - 1));
      }
      return Value::MakeBag(std::move(elems));
    }
    default: {
      FieldVec fields;
      for (uint64_t i = 0; i < 1 + rng() % 3; ++i) {
        fields.emplace_back(std::string(1, static_cast<char>('A' + i)),
                            RandomValue(rng, depth - 1));
      }
      return Value::MakeRecord(std::move(fields));
    }
  }
}

TEST(Serialize, RandomDeepValuesRoundTrip) {
  std::mt19937_64 rng(17);
  for (int trial = 0; trial < 500; ++trial) {
    ExpectRoundTrip(RandomValue(rng, 3));
  }
}

TEST(Serialize, Deterministic) {
  Value a = Value::MakeTuple({I(3), Value::MakeString("k"), D(1.5)});
  Value b = Value::MakeTuple({I(3), Value::MakeString("k"), D(1.5)});
  EXPECT_EQ(Serialize(a), Serialize(b));
}

TEST(Serialize, RejectsTruncation) {
  std::string wire =
      Serialize(Value::MakeTuple({I(1), Value::MakeString("abcdef")}));
  for (size_t cut = 0; cut < wire.size(); ++cut) {
    auto back = Deserialize(wire.substr(0, cut));
    EXPECT_FALSE(back.ok()) << "cut at " << cut;
  }
}

TEST(Serialize, RejectsTrailingBytes) {
  std::string wire = Serialize(I(7)) + "x";
  EXPECT_FALSE(Deserialize(wire).ok());
}

TEST(Serialize, RejectsUnknownTagsAndCorruptBools) {
  EXPECT_FALSE(Deserialize("Z").ok());
  std::string bad_bool = "b";
  bad_bool.push_back(7);
  EXPECT_FALSE(Deserialize(bad_bool).ok());
}

TEST(Serialize, EveryByteMutationIsRejectedOrDecodes) {
  // Property: flipping any single byte of a valid encoding must either
  // produce a Status error or decode to some well-formed Value — never
  // crash, hang, or read out of bounds. (Run under asan/ubsan in CI.)
  std::mt19937_64 rng(99);
  std::vector<Value> subjects = {
      Value::MakeTuple({I(1), Value::MakeString("abcdef"), D(2.5)}),
      Value::MakeRecord({{"k", Value::MakeBag({I(1), I(2)})}}),
      RandomValue(rng, 3),
      RandomValue(rng, 3),
  };
  for (const Value& v : subjects) {
    std::string wire = Serialize(v);
    for (size_t pos = 0; pos < wire.size(); ++pos) {
      for (unsigned char flip : {0x01, 0x80, 0xff}) {
        std::string mutated = wire;
        mutated[pos] = static_cast<char>(mutated[pos] ^ flip);
        auto back = Deserialize(mutated);
        if (back.ok()) {
          // A surviving decode must at least round-trip consistently.
          EXPECT_EQ(Serialize(*back), mutated) << "pos " << pos;
        }
      }
    }
  }
}

TEST(Serialize, RejectsExcessiveNestingDepth) {
  // A hostile buffer of deeply nested single-element tuples must be
  // rejected by the depth bound, not blow the decoder's stack.
  std::string wire;
  for (int i = 0; i < 100000; ++i) {
    wire += "t";  // tuple tag
    wire.push_back(1);  // u32 length = 1, little endian
    wire.push_back(0);
    wire.push_back(0);
    wire.push_back(0);
  }
  wire += "u";  // innermost unit
  auto back = Deserialize(wire);
  ASSERT_FALSE(back.ok());
  EXPECT_NE(back.status().ToString().find("deep"), std::string::npos);
}

TEST(Serialize, DeepButLegalNestingRoundTrips) {
  Value v = Value::MakeUnit();
  for (int i = 0; i < 60; ++i) v = Value::MakeTuple({v});
  ExpectRoundTrip(v);
}

TEST(Serialize, RejectsHugeDeclaredLengths) {
  // A bag claiming 2^31 elements in a 5-byte buffer must fail fast.
  std::string wire = "g";
  wire.push_back(static_cast<char>(0xff));
  wire.push_back(static_cast<char>(0xff));
  wire.push_back(static_cast<char>(0xff));
  wire.push_back(static_cast<char>(0x7f));
  EXPECT_FALSE(Deserialize(wire).ok());
}

// --- HashedRow batch wire path (the dist shuffle's on-the-wire form) ---

HashedVec SampleHashedVec(std::mt19937_64& rng, size_t n) {
  HashedVec rows;
  for (size_t i = 0; i < n; ++i) {
    rows.push_back(HashedRow{static_cast<uint64_t>(rng()),
                             RandomValue(rng, 2)});
  }
  return rows;
}

TEST(SerializeHashed, VecRoundTripsIncludingEmpty) {
  std::mt19937_64 rng(31);
  for (size_t n : {size_t{0}, size_t{1}, size_t{17}}) {
    HashedVec rows = SampleHashedVec(rng, n);
    std::string wire;
    SerializeHashedVec(rows, &wire);
    size_t offset = 0;
    auto back = DeserializeHashedVec(wire, &offset);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(offset, wire.size());
    ASSERT_EQ(back->size(), rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ((*back)[i].hash, rows[i].hash);
      EXPECT_EQ((*back)[i].row, rows[i].row);
    }
  }
}

TEST(SerializeHashed, RejectsTruncationAtEveryPrefix) {
  std::mt19937_64 rng(32);
  HashedVec rows = SampleHashedVec(rng, 5);
  std::string wire;
  SerializeHashedVec(rows, &wire);
  for (size_t cut = 0; cut < wire.size(); ++cut) {
    std::string prefix = wire.substr(0, cut);
    size_t offset = 0;
    auto back = DeserializeHashedVec(prefix, &offset);
    // Either a clean rejection or a decode that consumed a well-formed
    // prefix — never a row count the bytes cannot back.
    if (back.ok()) {
      EXPECT_LE(offset, prefix.size()) << "cut at " << cut;
    }
    if (cut < 4) {
      EXPECT_FALSE(back.ok()) << "count prefix cut at " << cut;
    }
  }
}

TEST(SerializeHashed, RejectsOversizedCountPrefix) {
  // A batch claiming 2^31 rows with four bytes of backing must fail
  // fast instead of reserving gigabytes or spinning on a huge loop.
  std::string wire;
  wire.push_back(static_cast<char>(0xff));
  wire.push_back(static_cast<char>(0xff));
  wire.push_back(static_cast<char>(0xff));
  wire.push_back(static_cast<char>(0x7f));
  wire += "XXXX";
  size_t offset = 0;
  auto back = DeserializeHashedVec(wire, &offset);
  EXPECT_FALSE(back.ok());
}

TEST(SerializeHashed, EveryByteMutationIsRejectedOrDecodes) {
  // Same property as the Value codec: any single flipped byte of a
  // batch must produce a Status error or a well-formed batch — no
  // crash, no out-of-bounds read (CI runs this under asan/ubsan).
  std::mt19937_64 rng(33);
  HashedVec rows = SampleHashedVec(rng, 4);
  std::string wire;
  SerializeHashedVec(rows, &wire);
  for (size_t pos = 0; pos < wire.size(); ++pos) {
    for (unsigned char flip : {0x01, 0x80, 0xff}) {
      std::string mutated = wire;
      mutated[pos] = static_cast<char>(mutated[pos] ^ flip);
      size_t offset = 0;
      auto back = DeserializeHashedVec(mutated, &offset);
      if (back.ok()) {
        std::string rewire;
        SerializeHashedVec(*back, &rewire);
        EXPECT_EQ(rewire, mutated.substr(0, offset)) << "pos " << pos;
      }
    }
  }
}

// --- ColumnBatch wire path (columnar fused waves on the dist wire) ---

ColumnBatch SampleBatch(std::mt19937_64& rng, int shape, size_t n) {
  ColumnBatch batch;
  switch (shape) {
    case 0:  // int64 scalar rows
      for (size_t i = 0; i < n; ++i) {
        batch.values.Append(I(static_cast<int64_t>(rng())));
      }
      break;
    case 1:  // paired: boxed keys, double values
      batch.pairs = true;
      for (size_t i = 0; i < n; ++i) {
        batch.keys.push_back(I(static_cast<int64_t>(rng() % 50)));
        batch.values.Append(D(static_cast<double>(rng()) / 7.3));
      }
      break;
    case 2:  // dictionary strings with repeats
      for (size_t i = 0; i < n; ++i) {
        batch.values.Append(
            Value::MakeString("word" + std::to_string(rng() % 7)));
      }
      break;
    case 3:  // bools
      for (size_t i = 0; i < n; ++i) {
        batch.values.Append(Value::MakeBool(rng() % 2 == 0));
      }
      break;
    default:  // boxed spill column: heterogeneous rows
      for (size_t i = 0; i < n; ++i) {
        batch.values.Append(RandomValue(rng, 2));
      }
      break;
  }
  return batch;
}

void ExpectBatchRoundTrip(const ColumnBatch& batch) {
  std::string wire;
  SerializeColumnBatch(batch, &wire);
  size_t offset = 0;
  auto back = DeserializeColumnBatch(wire, &offset);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(offset, wire.size());
  ASSERT_EQ(back->size(), batch.size());
  EXPECT_EQ(back->pairs, batch.pairs);
  // Row-wise equality is the contract (the dictionary may re-intern).
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(back->RowAt(i), batch.RowAt(i)) << "row " << i;
  }
}

TEST(SerializeColumnBatchTest, AllShapesRoundTripIncludingEmpty) {
  std::mt19937_64 rng(41);
  for (int shape = 0; shape < 5; ++shape) {
    for (size_t n : {size_t{0}, size_t{1}, size_t{23}}) {
      ExpectBatchRoundTrip(SampleBatch(rng, shape, n));
    }
  }
}

TEST(SerializeColumnBatchTest, RejectsTruncationAtEveryPrefix) {
  std::mt19937_64 rng(42);
  for (int shape = 0; shape < 5; ++shape) {
    ColumnBatch batch = SampleBatch(rng, shape, 6);
    std::string wire;
    SerializeColumnBatch(batch, &wire);
    for (size_t cut = 0; cut < wire.size(); ++cut) {
      std::string prefix = wire.substr(0, cut);
      size_t offset = 0;
      auto back = DeserializeColumnBatch(prefix, &offset);
      if (back.ok()) {
        EXPECT_LE(offset, prefix.size()) << "cut " << cut;
      }
      if (cut < 4) {
        EXPECT_FALSE(back.ok()) << "count prefix cut " << cut;
      }
    }
  }
}

TEST(SerializeColumnBatchTest, RejectsOversizedCountPrefix) {
  // A batch claiming 2^31 rows with four bytes of backing must fail
  // fast instead of reserving gigabytes.
  std::string wire;
  wire.push_back(static_cast<char>(0xff));
  wire.push_back(static_cast<char>(0xff));
  wire.push_back(static_cast<char>(0xff));
  wire.push_back(static_cast<char>(0x7f));
  wire += "XXXX";
  size_t offset = 0;
  EXPECT_FALSE(DeserializeColumnBatch(wire, &offset).ok());
}

TEST(SerializeColumnBatchTest, EveryByteMutationIsRejectedOrDecodes) {
  // Fuzz property shared with the Value and HashedVec codecs: one
  // flipped byte must produce a Status error or a well-formed batch —
  // never a crash or out-of-bounds read (CI runs this under asan/ubsan).
  // Dictionary-bearing shapes additionally exercise the duplicate-entry
  // and code-out-of-range rejections.
  std::mt19937_64 rng(43);
  for (int shape = 0; shape < 5; ++shape) {
    ColumnBatch batch = SampleBatch(rng, shape, 5);
    std::string wire;
    SerializeColumnBatch(batch, &wire);
    for (size_t pos = 0; pos < wire.size(); ++pos) {
      for (unsigned char flip : {0x01, 0x80, 0xff}) {
        std::string mutated = wire;
        mutated[pos] = static_cast<char>(mutated[pos] ^ flip);
        size_t offset = 0;
        auto back = DeserializeColumnBatch(mutated, &offset);
        if (back.ok()) {
          std::string rewire;
          SerializeColumnBatch(*back, &rewire);
          EXPECT_EQ(rewire, mutated.substr(0, offset))
              << "shape " << shape << " pos " << pos;
        }
      }
    }
  }
}

TEST(Serialize, EngineShuffleRoundTripsRows) {
  EngineConfig config;
  config.serialize_shuffles = true;
  Engine engine(config);
  ValueVec rows;
  std::mt19937_64 rng(4);
  for (int i = 0; i < 200; ++i) {
    rows.push_back(Value::MakePair(I(i % 9), RandomValue(rng, 2)));
  }
  auto grouped = engine.GroupByKey(engine.Parallelize(rows));
  ASSERT_TRUE(grouped.ok()) << grouped.status().ToString();
  // Compare against a non-serializing engine.
  Engine plain;
  auto expected = plain.GroupByKey(plain.Parallelize(rows));
  ASSERT_TRUE(expected.ok());
  EXPECT_TRUE(BagEquals(Value::MakeBag(engine.Collect(*grouped).value()),
                        Value::MakeBag(plain.Collect(*expected).value())));
  EXPECT_GT(engine.metrics().total_shuffle_bytes(), 0);
}

}  // namespace
}  // namespace diablo::runtime
