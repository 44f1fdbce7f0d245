#include "coflow/matching.h"

#include <limits>
#include <queue>

#include "common/check.h"
#include "obs/perf_monitor.h"

namespace cosched {

BipartiteGraph::BipartiteGraph(std::size_t num_left, std::size_t num_right)
    : adj_(num_left), num_left_(num_left), num_right_(num_right) {}

void BipartiteGraph::add_edge(std::size_t left, std::size_t right) {
  COSCHED_CHECK(left < num_left_);
  COSCHED_CHECK(right < num_right_);
  adj_[left].push_back(right);
}

namespace {

constexpr std::size_t kInf = std::numeric_limits<std::size_t>::max();
constexpr std::size_t kNil = MatchingResult::kUnmatched;

class HopcroftKarp {
 public:
  explicit HopcroftKarp(const BipartiteGraph& g)
      : g_(g),
        match_left_(g.num_left(), kNil),
        match_right_(g.num_right(), kNil),
        dist_(g.num_left(), kInf) {}

  MatchingResult run() {
    std::size_t matched = 0;
    while (bfs()) {
      for (std::size_t l = 0; l < g_.num_left(); ++l) {
        if (match_left_[l] == kNil && dfs(l)) ++matched;
      }
    }
    MatchingResult result;
    result.match_left = std::move(match_left_);
    result.match_right = std::move(match_right_);
    result.size = matched;
    return result;
  }

 private:
  // Layered BFS from free left vertices; returns true if an augmenting
  // path exists.
  bool bfs() {
    std::queue<std::size_t> q;
    for (std::size_t l = 0; l < g_.num_left(); ++l) {
      if (match_left_[l] == kNil) {
        dist_[l] = 0;
        q.push(l);
      } else {
        dist_[l] = kInf;
      }
    }
    bool found = false;
    while (!q.empty()) {
      const std::size_t l = q.front();
      q.pop();
      for (std::size_t r : g_.neighbors(l)) {
        const std::size_t next = match_right_[r];
        if (next == kNil) {
          found = true;
        } else if (dist_[next] == kInf) {
          dist_[next] = dist_[l] + 1;
          q.push(next);
        }
      }
    }
    return found;
  }

  bool dfs(std::size_t l) {
    for (std::size_t r : g_.neighbors(l)) {
      const std::size_t next = match_right_[r];
      if (next == kNil || (dist_[next] == dist_[l] + 1 && dfs(next))) {
        match_left_[l] = r;
        match_right_[r] = l;
        return true;
      }
    }
    dist_[l] = kInf;
    return false;
  }

  const BipartiteGraph& g_;
  std::vector<std::size_t> match_left_;
  std::vector<std::size_t> match_right_;
  std::vector<std::size_t> dist_;
};

}  // namespace

MatchingResult maximum_bipartite_matching(const BipartiteGraph& graph) {
  PerfScope perf(PerfPhase::kMatchingHopcroftKarp);
  perf.set_size(graph.num_left() + graph.num_right());
  return HopcroftKarp(graph).run();
}

}  // namespace cosched
