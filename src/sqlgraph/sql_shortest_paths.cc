#include "sqlgraph/sql_shortest_paths.h"

#include <limits>

#include "exec/plan_builder.h"
#include "sqlgraph/sql_common.h"

namespace vertexica {

Result<Table> SqlShortestPaths(const Table& vertices, const Table& edges,
                               int64_t source) {
  const double kInf = std::numeric_limits<double>::infinity();

  VX_ASSIGN_OR_RETURN(
      Table dist,
      PlanBuilder::Scan(vertices)
          .Project({{"id", Col("id")},
                    {"dist", If(Eq(Col("id"), Lit(source)), Lit(0.0),
                                Lit(kInf))}})
          .Execute());

  // Scanned every round, in place.
  const auto edge_table = BorrowTable(edges);
  const int64_t max_rounds = std::max<int64_t>(1, vertices.num_rows() - 1);
  for (int64_t round = 0; round < max_rounds; ++round) {
    // Candidate relaxations from currently-reachable vertices.
    VX_ASSIGN_OR_RETURN(
        Table cand,
        PlanBuilder::Scan(dist)
            .Filter(Lt(Col("dist"), Lit(kInf)))
            .Join(PlanBuilder::Scan(edge_table), {"id"}, {"src"})
            .Project({{"dst", Col("dst")},
                      {"nd", Add(Col("dist"), Col("weight"))}})
            .Aggregate({"dst"}, {{AggOp::kMin, "nd", "nd"}})
            .Execute());
    if (cand.num_rows() == 0) break;

    VX_ASSIGN_OR_RETURN(
        Table next,
        PlanBuilder::Scan(dist)
            .Join(PlanBuilder::Scan(std::move(cand)), {"id"}, {"dst"},
                  JoinType::kLeft)
            .Project({{"id", Col("id")},
                      {"dist", Least(Col("dist"), Col("nd"))},
                      {"improved",
                       If(And(IsNotNull(Col("nd")),
                              Lt(Col("nd"), Col("dist"))),
                          Lit(int64_t{1}), Lit(int64_t{0}))}})
            .Execute());

    VX_ASSIGN_OR_RETURN(
        Table improved_count,
        PlanBuilder::Scan(next)
            .Aggregate({}, {{AggOp::kSum, "improved", "n"}})
            .Execute());
    const bool improved = !improved_count.column(0).IsNull(0) &&
                          improved_count.column(0).GetInt64(0) > 0;

    VX_ASSIGN_OR_RETURN(dist, PlanBuilder::Scan(std::move(next))
                                  .Select({"id", "dist"})
                                  .Execute());
    if (!improved) break;
  }
  return dist;
}

Result<std::vector<double>> SqlShortestPaths(const Graph& graph,
                                             int64_t source) {
  VX_ASSIGN_OR_RETURN(Table dist,
                      SqlShortestPaths(MakeVertexListTable(graph),
                                       MakeEdgeListTable(graph), source));
  std::vector<double> out(static_cast<size_t>(graph.num_vertices),
                          std::numeric_limits<double>::infinity());
  const auto& ids = dist.column(0).ints();
  const auto& d = dist.column(1).doubles();
  for (size_t i = 0; i < ids.size(); ++i) {
    out[static_cast<size_t>(ids[i])] = d[i];
  }
  return out;
}

}  // namespace vertexica
