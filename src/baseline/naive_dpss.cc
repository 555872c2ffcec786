#include "baseline/naive_dpss.h"

#include "random/bernoulli.h"

namespace dpss {

NaiveDpss::NaiveDpss(const std::vector<uint64_t>& weights, bool exact)
    : exact_(exact) {
  table_.weights.reserve(weights.size());
  for (uint64_t w : weights) Insert(w);
}

NaiveDpss::ItemId NaiveDpss::Insert(uint64_t weight) {
  return table_.InsertWeightValue(weight);
}

void NaiveDpss::Erase(ItemId id) {
  DPSS_CHECK(Contains(id));
  table_.EraseId(id);
}

void NaiveDpss::SetWeight(ItemId id, uint64_t weight) {
  DPSS_CHECK(Contains(id));
  table_.SetWeightValue(id, weight);
}

uint64_t NaiveDpss::GetWeight(ItemId id) const {
  DPSS_CHECK(Contains(id));
  return table_.WeightOf(id);
}

std::vector<NaiveDpss::ItemId> NaiveDpss::Sample(Rational64 alpha,
                                                 Rational64 beta,
                                                 RandomEngine& rng) const {
  BigUInt wnum, wden;
  ParameterizedTotal(BigUInt::FromU128(table_.total), alpha, beta, &wnum,
                     &wden);
  return SampleW(wnum, wden, rng);
}

std::vector<NaiveDpss::ItemId> NaiveDpss::SampleW(const BigUInt& wnum,
                                                  const BigUInt& wden,
                                                  RandomEngine& rng) const {
  DPSS_CHECK(!wden.IsZero());
  std::vector<ItemId> out;
  if (wnum.IsZero()) {
    for (uint64_t slot = 0; slot < table_.weights.size(); ++slot) {
      if (table_.live[slot] && table_.weights[slot] != 0) {
        out.push_back(MakeItemId(slot, table_.gens[slot]));
      }
    }
    return out;
  }

  const double inv_w = exact_ ? 0.0 : BigRational(wden, wnum).ToDouble();
  for (uint64_t slot = 0; slot < table_.weights.size(); ++slot) {
    if (!table_.live[slot] || table_.weights[slot] == 0) continue;
    bool hit;
    if (exact_) {
      hit = SampleBernoulliRational(
          BigUInt::MulU64(wden, table_.weights[slot]), wnum, rng);
    } else {
      const double p = static_cast<double>(table_.weights[slot]) * inv_w;
      hit = rng.NextDouble() < p;
    }
    if (hit) out.push_back(MakeItemId(slot, table_.gens[slot]));
  }
  return out;
}

}  // namespace dpss
