#include "query/separated.h"

namespace approxql::query {

using util::Result;
using util::Status;

std::unique_ptr<ConjunctiveNode> ConjunctiveNode::Clone() const {
  auto copy = std::make_unique<ConjunctiveNode>();
  copy->type = type;
  copy->label = label;
  copy->children.reserve(children.size());
  for (const auto& child : children) {
    copy->children.push_back(child->Clone());
  }
  return copy;
}

namespace {

void AppendString(const ConjunctiveNode& node, std::string* out) {
  if (node.type == NodeType::kText) {
    out->push_back('"');
    out->append(node.label);
    out->push_back('"');
    return;
  }
  out->append(node.label);
  if (!node.children.empty()) {
    out->push_back('[');
    for (size_t i = 0; i < node.children.size(); ++i) {
      if (i > 0) out->append(" and ");
      AppendString(*node.children[i], out);
    }
    out->push_back(']');
  }
}

/// One alternative: the list of subtree roots contributed to the parent.
using Group = std::vector<std::unique_ptr<ConjunctiveNode>>;

Group CloneGroup(const Group& group) {
  Group copy;
  copy.reserve(group.size());
  for (const auto& node : group) copy.push_back(node->Clone());
  return copy;
}

/// Returns all alternatives for the subexpression. Every alternative is
/// a group of conjunctive subtrees (an "and" contributes several roots).
Result<std::vector<Group>> Expand(const AstNode& node, size_t max_queries) {
  switch (node.kind) {
    case AstKind::kText: {
      auto leaf = std::make_unique<ConjunctiveNode>();
      leaf->type = NodeType::kText;
      leaf->label = node.label;
      std::vector<Group> alternatives;
      Group group;
      group.push_back(std::move(leaf));
      alternatives.push_back(std::move(group));
      return alternatives;
    }
    case AstKind::kName: {
      std::vector<Group> child_alternatives;
      if (node.children.empty()) {
        child_alternatives.emplace_back();  // one empty group
      } else {
        ASSIGN_OR_RETURN(child_alternatives,
                         Expand(*node.children.front(), max_queries));
      }
      std::vector<Group> alternatives;
      for (auto& child_group : child_alternatives) {
        auto name = std::make_unique<ConjunctiveNode>();
        name->type = NodeType::kStruct;
        name->label = node.label;
        name->children = std::move(child_group);
        Group group;
        group.push_back(std::move(name));
        alternatives.push_back(std::move(group));
      }
      return alternatives;
    }
    case AstKind::kAnd: {
      // Cartesian product of the children's alternatives.
      std::vector<Group> acc;
      acc.emplace_back();
      for (const auto& child : node.children) {
        ASSIGN_OR_RETURN(std::vector<Group> child_alts,
                         Expand(*child, max_queries));
        std::vector<Group> next;
        if (acc.size() * child_alts.size() > max_queries) {
          return Status::OutOfRange(
              "separated representation exceeds limit of " +
              std::to_string(max_queries) + " conjunctive queries");
        }
        next.reserve(acc.size() * child_alts.size());
        for (const auto& left : acc) {
          for (const auto& right : child_alts) {
            Group combined = CloneGroup(left);
            for (auto& node_copy : CloneGroup(right)) {
              combined.push_back(std::move(node_copy));
            }
            next.push_back(std::move(combined));
          }
        }
        acc = std::move(next);
      }
      return acc;
    }
    case AstKind::kOr: {
      std::vector<Group> alternatives;
      for (const auto& child : node.children) {
        ASSIGN_OR_RETURN(std::vector<Group> child_alts,
                         Expand(*child, max_queries));
        for (auto& group : child_alts) {
          alternatives.push_back(std::move(group));
          if (alternatives.size() > max_queries) {
            return Status::OutOfRange(
                "separated representation exceeds limit of " +
                std::to_string(max_queries) + " conjunctive queries");
          }
        }
      }
      return alternatives;
    }
  }
  return Status::Internal("unreachable AST kind");
}

}  // namespace

std::string ConjunctiveQuery::ToString() const {
  std::string out;
  if (root != nullptr) AppendString(*root, &out);
  return out;
}

Result<std::vector<ConjunctiveQuery>> SeparatedRepresentation(
    const Query& query, size_t max_queries) {
  if (query.root == nullptr) {
    return Status::InvalidArgument("empty query");
  }
  ASSIGN_OR_RETURN(std::vector<Group> alternatives,
                   Expand(*query.root, max_queries));
  std::vector<ConjunctiveQuery> queries;
  queries.reserve(alternatives.size());
  for (auto& group : alternatives) {
    APPROXQL_CHECK(group.size() == 1)
        << "query root must expand to a single selector";
    ConjunctiveQuery q;
    q.root = std::move(group.front());
    queries.push_back(std::move(q));
  }
  return queries;
}

}  // namespace approxql::query
