#include "obs/decision_log.h"

#include <ostream>

#include "common/check.h"

namespace cosched {

namespace {

/// Join ints as "3|2|1" — pipe-separated so the field stays one CSV cell.
template <typename Range, typename Fn>
void write_joined(std::ostream& os, const Range& range, Fn&& fn) {
  bool first = true;
  for (const auto& item : range) {
    if (!first) os << '|';
    first = false;
    fn(os, item);
  }
}

}  // namespace

void DecisionLog::write_placements_csv(std::ostream& os) const {
  os << "time_sec,job,r_map,r_red,candidates,planned_cct_sec,t_max_sec,"
        "score_sec,d,plan\n";
  for (const PlacementDecision& p : placements_) {
    os << p.at.sec() << ',' << p.job.value() << ',' << p.r_map << ','
       << p.r_red << ',' << p.candidates << ',' << p.planned_cct.sec() << ','
       << p.t_max.sec() << ',' << p.score_sec << ',';
    write_joined(os, p.d, [](std::ostream& o, std::int32_t v) { o << v; });
    os << ',';
    write_joined(os, p.plan,
                 [](std::ostream& o, const std::pair<RackId, std::int32_t>& e) {
                   o << e.first.value() << ':' << e.second;
                 });
    os << "\n";
  }
  COSCHED_CHECK_MSG(os.good(), "placement CSV export failed");
}

}  // namespace cosched
