#include "bsp/trace.hpp"

#include <algorithm>
#include <array>

namespace nobl {

DegreeAccumulator::DegreeAccumulator(unsigned log_v) : log_v_(log_v) {
  // finalize_into keeps its per-fold running sums on the stack.
  if (log_v >= kMaxFolds) {
    throw std::invalid_argument("DegreeAccumulator: log_v must be below 64");
  }
}

void DegreeAccumulator::allocate_lanes() {
  const std::size_t v = std::size_t{1} << log_v_;
  sent_fine_.assign(v * log_v_, 0);
  recv_fine_.assign(v * log_v_, 0);
  active_.assign(v, 0);
}

void DegreeAccumulator::absorb(DegreeAccumulator& other) {
  if (other.log_v_ != log_v_) {
    throw std::invalid_argument("DegreeAccumulator::absorb: fold mismatch");
  }
  messages_ += other.messages_;
  other.messages_ = 0;
  if (!other.touched_.empty() && active_.empty()) allocate_lanes();
  for (const std::uint64_t r : other.touched_) {
    touch(r);
    for (std::size_t i = slot(r, 0); i < slot(r + 1, 0); ++i) {
      sent_fine_[i] += other.sent_fine_[i];
      recv_fine_[i] += other.recv_fine_[i];
      other.sent_fine_[i] = 0;
      other.recv_fine_[i] = 0;
    }
    other.active_[r] = 0;
  }
  other.touched_.clear();
}

void DegreeAccumulator::finalize_into(SuperstepRecord& record) {
  if (record.degree.size() != static_cast<std::size_t>(log_v_) + 1) {
    throw std::invalid_argument(
        "DegreeAccumulator::finalize_into: degree vector size mismatch");
  }
  // Index k below stands for fold 2^(k+1). Messages a VP sends (receives)
  // across fold 2^(k+1) are its counters with cb <= k, a prefix of its row.
  // run_*[k] totals the current fold cluster — the VPs visited so far that
  // share the last one's k+1 most-significant bits — and peak[k] is the
  // largest closed cluster total: h(2^j) = max over processors of
  // max(sent, received).
  std::array<std::uint64_t, kMaxFolds> run_sent{};
  std::array<std::uint64_t, kMaxFolds> run_recv{};
  std::array<std::uint64_t, kMaxFolds> peak{};
  const auto close_from = [&](unsigned first) {
    for (unsigned k = first; k < log_v_; ++k) {
      peak[k] = std::max(peak[k], std::max(run_sent[k], run_recv[k]));
      run_sent[k] = 0;
      run_recv[k] = 0;
    }
  };
  std::uint64_t prev = 0;
  const auto visit = [&](std::uint64_t r) {
    // Ascending order: r leaves prev's cluster at every fold that separates
    // the two, and no later VP returns to it. (Before the first VP, prev = 0
    // closes only empty clusters.)
    close_from(log_v_ - static_cast<unsigned>(std::bit_width(prev ^ r)));
    prev = r;
    std::uint64_t* sent = sent_fine_.data() + slot(r, 0);
    std::uint64_t* recv = recv_fine_.data() + slot(r, 0);
    std::uint64_t sent_prefix = 0;
    std::uint64_t recv_prefix = 0;
    for (unsigned k = 0; k < log_v_; ++k) {
      sent_prefix += sent[k];
      recv_prefix += recv[k];
      sent[k] = 0;
      recv[k] = 0;
      run_sent[k] += sent_prefix;
      run_recv[k] += recv_prefix;
    }
    active_[r] = 0;
  };
  // Visit the touched VPs in ascending order: sort a small touched set,
  // walk the active flags of a large one (sorting t VPs costs about as much
  // as scanning 64·t flags).
  const std::size_t v = std::size_t{1} << log_v_;
  if (touched_.size() * 64 < v) {
    std::sort(touched_.begin(), touched_.end());
    for (const std::uint64_t r : touched_) visit(r);
  } else {
    for (std::uint64_t r = 0; r < v; ++r) {
      if (active_[r]) visit(r);
    }
  }
  close_from(0);
  std::copy_n(peak.begin(), log_v_, record.degree.begin() + 1);
  touched_.clear();
  record.messages = messages_;
  messages_ = 0;
}

FoldTables::FoldTables(unsigned log_v)
    : log_v_(log_v),
      label_F_(static_cast<std::size_t>(label_bound()) * (log_v + 1u), 0),
      label_peak_(label_F_.size(), 0),
      label_S_(label_bound(), 0) {}

void FoldTables::add(const SuperstepRecord& record) {
  if (record.degree.size() != static_cast<std::size_t>(log_v_) + 1) {
    throw std::invalid_argument("Trace::append: degree vector size mismatch");
  }
  if (record.label >= label_bound()) {
    throw std::invalid_argument("Trace::append: label out of range");
  }
  if (record.degree[0] != 0) {
    throw std::invalid_argument("Trace::append: nonzero degree at fold p=1");
  }
  ++supersteps_;
  total_messages_ += record.messages;
  max_label_ = std::max(max_label_, record.label);
  ++label_S_[record.label];
  for (unsigned j = 0; j <= log_v_; ++j) {
    const std::size_t k = at(record.label, j);
    label_F_[k] += record.degree[j];
    label_peak_[k] = std::max(label_peak_[k], record.degree[j]);
  }
}

void FoldTables::check_log_p(unsigned log_p) const {
  if (log_p > log_v_) {
    throw std::out_of_range("Trace: fold larger than specification model");
  }
}

std::uint64_t FoldTables::S(unsigned label) const {
  return label < label_bound() ? label_S_[label] : 0;
}

std::uint64_t FoldTables::F(unsigned label, unsigned log_p) const {
  check_log_p(log_p);
  return label < label_bound() ? label_F_[at(label, log_p)] : 0;
}

std::uint64_t FoldTables::total_F(unsigned log_p) const {
  return partial_F(log_p, log_p);
}

std::uint64_t FoldTables::partial_F(unsigned label_bound,
                                    unsigned log_p) const {
  check_log_p(log_p);
  const unsigned clamped = std::min(label_bound, this->label_bound());
  std::uint64_t sum = 0;
  for (unsigned i = 0; i < clamped; ++i) sum += label_F_[at(i, log_p)];
  return sum;
}

std::uint64_t FoldTables::total_S(unsigned log_p) const {
  check_log_p(log_p);
  const unsigned clamped = std::min(log_p, label_bound());
  std::uint64_t sum = 0;
  for (unsigned i = 0; i < clamped; ++i) sum += label_S_[i];
  return sum;
}

std::uint64_t FoldTables::peak_degree(unsigned label, unsigned log_p) const {
  check_log_p(log_p);
  return label < label_bound() ? label_peak_[at(label, log_p)] : 0;
}

std::size_t FoldTables::table_bytes() const noexcept {
  return (label_F_.capacity() + label_peak_.capacity() +
          label_S_.capacity()) *
         sizeof(std::uint64_t);
}

void Trace::append(SuperstepRecord record) {
  add(record);
  steps_.push_back(std::move(record));
}

void Trace::extend(const Trace& other) {
  if (other.log_v() != log_v()) {
    throw std::invalid_argument("Trace::extend: incompatible machine sizes");
  }
  steps_.reserve(steps_.size() + other.steps_.size());
  for (const SuperstepRecord& record : other.steps_) append(record);
}

}  // namespace nobl
