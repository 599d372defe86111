#include "sqlgraph/sql_pagerank.h"

#include "exec/plan_builder.h"
#include "sqlgraph/sql_common.h"

namespace vertexica {

PlanBuilder SqlPageRankContributions(std::shared_ptr<const Table> edge_deg,
                                     Table rank) {
  return PlanBuilder::Scan(std::move(edge_deg))
      .Join(PlanBuilder::Scan(std::move(rank)), {"src"}, {"id"})
      .Project({{"dst", Col("dst")}, {"c", Div(Col("rank"), Col("outdeg"))}})
      .Aggregate({"dst"}, {{AggOp::kSum, "c", "s"}});
}

Result<Table> SqlPageRank(const Table& vertices, const Table& edges,
                          int iterations, double damping) {
  const auto n = static_cast<double>(vertices.num_rows());
  if (n == 0) return Table(Schema({{"id", DataType::kInt64},
                                   {"rank", DataType::kDouble}}));

  // Pre-join edges with out-degrees once; the per-iteration plan then only
  // joins this against the current rank table.
  const auto edge_table = BorrowTable(edges);
  const auto vertex_table = BorrowTable(vertices);
  VX_ASSIGN_OR_RETURN(
      Table outdeg,
      PlanBuilder::Scan(edge_table)
          .Aggregate({"src"}, {{AggOp::kCountStar, "", "outdeg"}})
          .Execute());
  VX_ASSIGN_OR_RETURN(
      Table edge_deg_table,
      PlanBuilder::Scan(edge_table)
          .Select({"src", "dst"})
          .Join(PlanBuilder::Scan(std::move(outdeg)), {"src"}, {"src"})
          .Select({"src", "dst", "outdeg"})
          .Execute());
  // Scanned every iteration, so held once rather than copied per scan.
  const auto edge_deg =
      std::make_shared<const Table>(std::move(edge_deg_table));

  // rank_0 = 1/N everywhere.
  VX_ASSIGN_OR_RETURN(Table rank,
                      PlanBuilder::Scan(vertex_table)
                          .Project({{"id", Col("id")},
                                    {"rank", Lit(1.0 / n)}})
                          .Execute());

  for (int it = 0; it < iterations; ++it) {
    VX_ASSIGN_OR_RETURN(
        Table sums,
        SqlPageRankContributions(edge_deg, std::move(rank)).Execute());
    VX_ASSIGN_OR_RETURN(
        rank,
        PlanBuilder::Scan(vertex_table)
            .Join(PlanBuilder::Scan(std::move(sums)), {"id"}, {"dst"},
                  JoinType::kLeft)
            .Project({{"id", Col("id")},
                      {"rank", Add(Lit((1.0 - damping) / n),
                                   Mul(Lit(damping),
                                       Coalesce(Col("s"), Lit(0.0))))}})
            .Execute());
  }
  return rank;
}

Result<std::vector<double>> SqlPageRank(const Graph& graph, int iterations,
                                        double damping) {
  VX_ASSIGN_OR_RETURN(Table rank,
                      SqlPageRank(MakeVertexListTable(graph),
                                  MakeEdgeListTable(graph), iterations,
                                  damping));
  std::vector<double> out(static_cast<size_t>(graph.num_vertices), 0.0);
  const auto& ids = rank.column(0).ints();
  const auto& ranks = rank.column(1).doubles();
  for (size_t i = 0; i < ids.size(); ++i) {
    out[static_cast<size_t>(ids[i])] = ranks[i];
  }
  return out;
}

}  // namespace vertexica
