#include "sim/charge_log.hpp"

namespace mfbc::sim {

void ChargeLog::push(Kind kind, std::span<const int> group, double value) {
  Record r;
  r.kind = kind;
  r.value = value;
  r.group.assign(group.begin(), group.end());
  records_.push_back(std::move(r));
}

void ChargeLog::charge_bcast(std::span<const int> group, double payload_words) {
  push(Kind::kBcast, group, payload_words);
}

void ChargeLog::charge_reduce(std::span<const int> group, double result_words) {
  push(Kind::kReduce, group, result_words);
}

void ChargeLog::charge_allreduce(std::span<const int> group,
                                 double result_words) {
  push(Kind::kAllreduce, group, result_words);
}

void ChargeLog::charge_scatter(std::span<const int> group,
                               double max_rank_words) {
  push(Kind::kScatter, group, max_rank_words);
}

void ChargeLog::charge_gather(std::span<const int> group,
                              double max_rank_words) {
  push(Kind::kGather, group, max_rank_words);
}

void ChargeLog::charge_allgather(std::span<const int> group,
                                 double max_rank_words) {
  push(Kind::kAllgather, group, max_rank_words);
}

void ChargeLog::charge_alltoall(std::span<const int> group,
                                double max_rank_words) {
  push(Kind::kAlltoall, group, max_rank_words);
}

void ChargeLog::charge_compute(int rank, double ops) {
  Record r;
  r.kind = Kind::kCompute;
  r.rank = rank;
  r.value = ops;
  records_.push_back(std::move(r));
}

void ChargeLog::overlap_open(std::span<const int> group, double beta) {
  push(Kind::kOverlapOpen, group, beta);
}

void ChargeLog::post_bcast(std::span<const int> group, double payload_words) {
  push(Kind::kOverlapBcast, group, payload_words);
}

void ChargeLog::overlap_compute(int rank, double ops) {
  Record r;
  r.kind = Kind::kOverlapCompute;
  r.rank = rank;
  r.value = ops;
  records_.push_back(std::move(r));
}

void ChargeLog::overlap_close() { push(Kind::kOverlapClose, {}, 0.0); }

}  // namespace mfbc::sim
