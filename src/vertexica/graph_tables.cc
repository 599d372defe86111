#include "vertexica/graph_tables.h"

#include <numeric>
#include <type_traits>

#include "common/exec_knobs.h"
#include "common/string_util.h"
#include "storage/sort.h"

namespace vertexica {

Schema MakeVertexSchema(int value_arity) {
  Schema s({{"id", DataType::kInt64}, {"halted", DataType::kBool}});
  for (int i = 0; i < value_arity; ++i) {
    s.AddField({StringFormat("v%d", i), DataType::kDouble});
  }
  return s;
}

Schema MakeEdgeSchema() {
  return Schema({{"src", DataType::kInt64},
                 {"dst", DataType::kInt64},
                 {"weight", DataType::kDouble}});
}

Schema MakeMessageSchema(int message_arity) {
  Schema s({{"src", DataType::kInt64}, {"dst", DataType::kInt64}});
  for (int i = 0; i < message_arity; ++i) {
    s.AddField({StringFormat("m%d", i), DataType::kDouble});
  }
  return s;
}

Status LoadGraphTables(Catalog* catalog, const Graph& graph,
                       const VertexProgram& program,
                       const GraphTableNames& names) {
  VX_RETURN_NOT_OK(LoadEdgeTable(catalog, graph, names));
  return LoadProgramTables(catalog, graph, program, names);
}

Status LoadEdgeTable(Catalog* catalog, const Graph& graph,
                     const GraphTableNames& names) {
  // A directed graph's edge vectors are read in place; an undirected one
  // is first expanded into both directions.
  Graph expanded;
  if (!graph.directed) expanded = graph.AsDirected();
  const Graph& directed = graph.directed ? graph : expanded;

  // Edge table, stored sorted on (src, dst) — the column-store layout the
  // paper assumes: each vertex's out-edges are contiguous and the source-id
  // column becomes one run per vertex, so it RLE-compresses to O(V) runs
  // instead of O(E) values and its zone map makes per-vertex range scans
  // prunable. The permutation is the stable (src, dst) sort SortTable would
  // compute (storage/sort.h: one radix pass per key, dst then src), taken
  // straight from the edge vectors, and each column is gathered once.
  // Sorting is unconditional (layout must not depend on the encoding knob,
  // or results could differ between encoding on and off); only the
  // encoding step consults the ambient mode.
  std::vector<int64_t> order(directed.src.size());
  std::iota(order.begin(), order.end(), int64_t{0});
  RadixSortRows(directed.dst, /*ascending=*/true, &order);
  RadixSortRows(directed.src, /*ascending=*/true, &order);
  const auto gather = [&order](const auto& in) {
    std::decay_t<decltype(in)> out(order.size());
    for (size_t i = 0; i < order.size(); ++i) {
      out[i] = in[static_cast<size_t>(order[i])];
    }
    return out;
  };
  std::vector<Column> cols;
  cols.push_back(Column::FromInts(gather(directed.src)));
  cols.push_back(Column::FromInts(gather(directed.dst)));
  cols.push_back(Column::FromDoubles(
      directed.weight.empty() ? std::vector<double>(order.size(), 1.0)
                              : gather(directed.weight)));
  VX_ASSIGN_OR_RETURN(Table t, Table::Make(MakeEdgeSchema(), std::move(cols)));
  const EncodingMode mode = ExecKnobs::Current().encoding;
  if (mode != EncodingMode::kOff) {
    t.BuildZoneMaps();
    t.mutable_column(0)->Encode(mode);
  }
  // Declared after the encode step (mutable_column conservatively drops a
  // declaration; encoding is value-neutral, so the (src, dst) order holds).
  t.SetSortOrder({{0, true}, {1, true}});
  return catalog->ReplaceTable(names.edge, std::move(t));
}

Status LoadProgramTables(Catalog* catalog, const Graph& graph,
                         const VertexProgram& program,
                         const GraphTableNames& names) {
  // Only the vertex set matters here, and AsDirected preserves it — no
  // need for the directed edge-list copy LoadEdgeTable makes.
  const int64_t num_vertices = graph.num_vertices;
  const int arity = program.value_arity();

  // Vertex table.
  {
    Schema schema = MakeVertexSchema(arity);
    std::vector<Column> cols;
    std::vector<int64_t> ids(static_cast<size_t>(num_vertices));
    for (int64_t v = 0; v < num_vertices; ++v) {
      ids[static_cast<size_t>(v)] = v;
    }
    cols.push_back(Column::FromInts(std::move(ids)));
    cols.push_back(Column::FromBools(
        std::vector<uint8_t>(static_cast<size_t>(num_vertices), 0)));
    std::vector<std::vector<double>> values(
        static_cast<size_t>(arity),
        std::vector<double>(static_cast<size_t>(num_vertices)));
    std::vector<double> tmp(static_cast<size_t>(arity));
    for (int64_t v = 0; v < num_vertices; ++v) {
      program.InitValue(v, num_vertices, tmp.data());
      for (int i = 0; i < arity; ++i) {
        values[static_cast<size_t>(i)][static_cast<size_t>(v)] =
            tmp[static_cast<size_t>(i)];
      }
    }
    for (int i = 0; i < arity; ++i) {
      cols.push_back(
          Column::FromDoubles(std::move(values[static_cast<size_t>(i)])));
    }
    VX_ASSIGN_OR_RETURN(Table t, Table::Make(schema, std::move(cols)));
    // The halted column is a single all-false run — RLE collapses it to 16
    // bytes; the ascending id column stays plain under kAuto (all-distinct
    // ids don't RLE). Value-neutral either way.
    const EncodingMode mode = ExecKnobs::Current().encoding;
    if (mode != EncodingMode::kOff) t.EncodeColumns(mode);
    // Ids were written 0..V-1: declare the sorted-by-id invariant the
    // coordinator maintains (the frontier and the in-place apply key on it).
    t.SetSortOrder({{0, true}});
    VX_RETURN_NOT_OK(catalog->ReplaceTable(names.vertex, std::move(t)));
  }

  // Message table (empty).
  VX_RETURN_NOT_OK(catalog->ReplaceTable(
      names.message, Table(MakeMessageSchema(program.message_arity()))));
  return Status::OK();
}

Result<std::vector<double>> ReadVertexValues(const Catalog& catalog,
                                             const GraphTableNames& names,
                                             int component) {
  VX_ASSIGN_OR_RETURN(auto table, catalog.GetTable(names.vertex));
  VX_ASSIGN_OR_RETURN(
      int vcol, table->ColumnIndex(StringFormat("v%d", component)));
  VX_ASSIGN_OR_RETURN(int idcol, table->ColumnIndex("id"));
  const Column& id_col = table->column(idcol);
  const Column& val_col = table->column(vcol);
  if (id_col.type() != DataType::kInt64 || id_col.null_count() > 0) {
    return Status::InvalidArgument(
        StringFormat("vertex table column 'id' is %s, expected non-NULL INT64",
                     DataTypeName(id_col.type())));
  }
  if (val_col.type() != DataType::kDouble) {
    return Status::InvalidArgument(StringFormat(
        "vertex table column 'v%d' is %s, expected DOUBLE", component,
        DataTypeName(val_col.type())));
  }
  const auto& ids = id_col.ints();
  const auto& vals = val_col.doubles();
  int64_t max_id = -1;
  for (int64_t id : ids) {
    if (id < 0) {
      return Status::InvalidArgument(StringFormat(
          "vertex table holds negative id %lld", static_cast<long long>(id)));
    }
    max_id = std::max(max_id, id);
  }
  std::vector<double> out(static_cast<size_t>(max_id + 1), 0.0);
  for (size_t i = 0; i < ids.size(); ++i) {
    out[static_cast<size_t>(ids[i])] = vals[i];
  }
  return out;
}

Table WithRowNumbers(const Table& t, const std::string& name) {
  Schema schema = t.schema();
  schema.AddField({name, DataType::kInt64});
  std::vector<Column> cols;
  cols.reserve(static_cast<size_t>(t.num_columns()) + 1);
  for (int c = 0; c < t.num_columns(); ++c) cols.push_back(t.column(c));
  std::vector<int64_t> seq(static_cast<size_t>(t.num_rows()));
  for (int64_t i = 0; i < t.num_rows(); ++i) seq[static_cast<size_t>(i)] = i;
  cols.push_back(Column::FromInts(std::move(seq)));
  auto made = Table::Make(std::move(schema), std::move(cols));
  VX_CHECK(made.ok());
  return std::move(made).MoveValueUnsafe();
}

}  // namespace vertexica
