#include "sqlgraph/sql_common.h"

#include <algorithm>

#include "exec/plan_builder.h"

namespace vertexica {

std::shared_ptr<const Table> BorrowTable(const Table& table) {
  // The aliasing constructor with an empty owner: no copy, no ownership.
  return std::shared_ptr<const Table>(std::shared_ptr<const Table>(), &table);
}

Table MakeVertexListTable(const Graph& g) {
  std::vector<int64_t> ids(static_cast<size_t>(g.num_vertices));
  for (int64_t v = 0; v < g.num_vertices; ++v) ids[static_cast<size_t>(v)] = v;
  auto made = Table::Make(Schema({{"id", DataType::kInt64}}),
                          {Column::FromInts(std::move(ids))});
  VX_CHECK(made.ok());
  return std::move(made).MoveValueUnsafe();
}

Table MakeEdgeListTable(const Graph& graph) {
  const Graph g = graph.AsDirected();
  std::vector<Column> cols;
  cols.push_back(Column::FromInts(g.src));
  cols.push_back(Column::FromInts(g.dst));
  if (g.weight.empty()) {
    cols.push_back(
        Column::FromDoubles(std::vector<double>(g.src.size(), 1.0)));
  } else {
    cols.push_back(Column::FromDoubles(g.weight));
  }
  auto made = Table::Make(Schema({{"src", DataType::kInt64},
                                  {"dst", DataType::kInt64},
                                  {"weight", DataType::kDouble}}),
                          std::move(cols));
  VX_CHECK(made.ok());
  return std::move(made).MoveValueUnsafe();
}

Result<Table> UndirectedEdges(const Table& edges) {
  // SELECT src, dst FROM e UNION SELECT dst, src FROM e  (dedup, no loops)
  return PlanBuilder::Scan(edges)
      .Project({{"src", Col("src")}, {"dst", Col("dst")}})
      .Union(PlanBuilder::Scan(edges)
                 .Project({{"src", Col("dst")}, {"dst", Col("src")}}))
      .Filter(Ne(Col("src"), Col("dst")))
      .Distinct()
      .Execute();
}

Result<Table> OrientedEdges(const Table& edges) {
  VX_ASSIGN_OR_RETURN(Table und, UndirectedEdges(edges));
  return PlanBuilder::Scan(std::move(und))
      .Filter(Lt(Col("src"), Col("dst")))
      .Execute();
}

Result<Graph> GraphFromEdgeTable(const Table& edges) {
  VX_ASSIGN_OR_RETURN(int src_c, edges.ColumnIndex("src"));
  VX_ASSIGN_OR_RETURN(int dst_c, edges.ColumnIndex("dst"));
  const int w_c = edges.schema().FieldIndex("weight");
  Graph g;
  g.directed = true;
  g.src = edges.column(src_c).ints();
  g.dst = edges.column(dst_c).ints();
  if (w_c >= 0) g.weight = edges.column(w_c).doubles();
  for (int64_t e = 0; e < edges.num_rows(); ++e) {
    g.num_vertices = std::max(
        {g.num_vertices, g.src[static_cast<size_t>(e)] + 1,
         g.dst[static_cast<size_t>(e)] + 1});
  }
  return g;
}

}  // namespace vertexica
