#include "sqlgraph/sql_connected_components.h"

#include "exec/plan_builder.h"
#include "sqlgraph/sql_common.h"

namespace vertexica {

Result<Table> SqlConnectedComponents(const Table& vertices,
                                     const Table& edges) {
  // Scanned every round, so held once rather than copied per scan.
  VX_ASSIGN_OR_RETURN(Table und_table, UndirectedEdges(edges));
  const auto und = std::make_shared<const Table>(std::move(und_table));

  VX_ASSIGN_OR_RETURN(Table label,
                      PlanBuilder::Scan(vertices)
                          .Project({{"id", Col("id")},
                                    {"label", Cast(Col("id"),
                                                   DataType::kDouble)}})
                          .Execute());

  const int64_t max_rounds = std::max<int64_t>(1, vertices.num_rows());
  for (int64_t round = 0; round < max_rounds; ++round) {
    VX_ASSIGN_OR_RETURN(
        Table cand,
        PlanBuilder::Scan(label)
            .Join(PlanBuilder::Scan(und), {"id"}, {"src"})
            .Project({{"nid", Col("dst")}, {"nl", Col("label")}})
            .Aggregate({"nid"}, {{AggOp::kMin, "nl", "nl"}})
            .Execute());
    VX_ASSIGN_OR_RETURN(
        Table next,
        PlanBuilder::Scan(label)
            .Join(PlanBuilder::Scan(std::move(cand)), {"id"}, {"nid"},
                  JoinType::kLeft)
            .Project({{"id", Col("id")},
                      {"label", Least(Col("label"), Col("nl"))},
                      {"improved",
                       If(And(IsNotNull(Col("nl")),
                              Lt(Col("nl"), Col("label"))),
                          Lit(int64_t{1}), Lit(int64_t{0}))}})
            .Execute());
    VX_ASSIGN_OR_RETURN(Table improved_count,
                        PlanBuilder::Scan(next)
                            .Aggregate({}, {{AggOp::kSum, "improved", "n"}})
                            .Execute());
    const bool improved = !improved_count.column(0).IsNull(0) &&
                          improved_count.column(0).GetInt64(0) > 0;
    VX_ASSIGN_OR_RETURN(label, PlanBuilder::Scan(std::move(next))
                                   .Select({"id", "label"})
                                   .Execute());
    if (!improved) break;
  }
  // Render labels back as integers.
  return PlanBuilder::Scan(std::move(label))
      .Project({{"id", Col("id")},
                {"label", Cast(Col("label"), DataType::kInt64)}})
      .Execute();
}

Result<std::vector<int64_t>> SqlConnectedComponents(const Graph& graph) {
  VX_ASSIGN_OR_RETURN(Table label,
                      SqlConnectedComponents(MakeVertexListTable(graph),
                                             MakeEdgeListTable(graph)));
  std::vector<int64_t> out(static_cast<size_t>(graph.num_vertices), 0);
  const auto& ids = label.column(0).ints();
  const auto& labels = label.column(1).ints();
  for (size_t i = 0; i < ids.size(); ++i) {
    out[static_cast<size_t>(ids[i])] = labels[i];
  }
  return out;
}

}  // namespace vertexica
