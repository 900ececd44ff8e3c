#include "dsl/term.hpp"

#include <cctype>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "dsl/intern.hpp"
#include "support/check.hpp"

namespace isamore {

TermPtr
makeTerm(Op op, Payload payload, std::vector<TermPtr> children)
{
    const int arity = opArity(op);
    if (arity >= 0) {
        ISAMORE_USER_CHECK(children.size() == static_cast<size_t>(arity),
                           std::string("arity mismatch for op ") +
                               std::string(opName(op)));
    }
    for (const auto& child : children) {
        ISAMORE_USER_CHECK(child != nullptr, "null child term");
    }
    return detail::internNode(op, std::move(payload), std::move(children));
}

TermPtr
makeTerm(Op op, std::vector<TermPtr> children)
{
    return makeTerm(op, Payload::none(), std::move(children));
}

TermPtr
lit(int64_t value)
{
    return makeTerm(Op::Lit, Payload::ofInt(value), {});
}

TermPtr
litF(double value)
{
    return makeTerm(Op::Lit, Payload::ofFloat(value), {});
}

TermPtr
arg(int64_t depth, int64_t index)
{
    return argT(depth, index, ScalarKind::I32);
}

TermPtr
argT(int64_t depth, int64_t index, ScalarKind kind)
{
    ISAMORE_USER_CHECK(index >= 0 && index <= 0xffffffff,
                       "Arg index out of range");
    const int64_t packed = index | (static_cast<int64_t>(kind) << 32);
    return makeTerm(Op::Arg, Payload::ofPair(depth, packed), {});
}

TermPtr
hole(int64_t holeId)
{
    // Holes are interned, so a table of the small ids built once hands
    // out the very pointers makeTerm would, without taking the
    // interner's shard lock on every call.  Leaked like the interner.
    constexpr int64_t kTabled = 1024;
    static const std::vector<TermPtr>* const tabled = [] {
        auto* holes = new std::vector<TermPtr>();
        holes->reserve(kTabled);
        for (int64_t id = 0; id < kTabled; ++id) {
            holes->push_back(makeTerm(Op::Hole, Payload::ofInt(id), {}));
        }
        return holes;
    }();
    if (holeId >= 0 && holeId < kTabled) {
        return (*tabled)[static_cast<size_t>(holeId)];
    }
    return makeTerm(Op::Hole, Payload::ofInt(holeId), {});
}

TermPtr
patRef(int64_t patternId)
{
    return makeTerm(Op::PatRef, Payload::ofInt(patternId), {});
}

TermPtr
get(TermPtr aggregate, int64_t index)
{
    return makeTerm(Op::Get, Payload::ofInt(index), {std::move(aggregate)});
}

TermPtr
load(ScalarKind kind, TermPtr base, TermPtr offset)
{
    return makeTerm(Op::Load, Payload::ofInt(static_cast<int64_t>(kind)),
                    {std::move(base), std::move(offset)});
}

TermPtr
vecOp(Op scalarOp, std::vector<TermPtr> operands)
{
    ISAMORE_USER_CHECK(opArity(scalarOp) >= 1,
                       "VecOp requires a fixed-arity scalar operator");
    ISAMORE_USER_CHECK(
        operands.size() == static_cast<size_t>(opArity(scalarOp)),
        "VecOp operand count must match the scalar operator arity");
    return makeTerm(Op::VecOp, Payload::ofInt(static_cast<int64_t>(scalarOp)),
                    std::move(operands));
}

TermPtr
app(int64_t patternId, std::vector<TermPtr> args)
{
    std::vector<TermPtr> children;
    children.reserve(args.size() + 1);
    children.push_back(patRef(patternId));
    for (auto& a : args) {
        children.push_back(std::move(a));
    }
    return makeTerm(Op::App, Payload::none(), std::move(children));
}

size_t
termSize(const TermPtr& term)
{
    size_t total = 1;
    for (const auto& child : term->children) {
        total += termSize(child);
    }
    return total;
}

size_t
termOpCount(const TermPtr& term)
{
    size_t total = opHasFlag(term->op, kLeaf) ? 0 : 1;
    for (const auto& child : term->children) {
        total += termOpCount(child);
    }
    return total;
}

namespace {

void
collectUniqueOps(const TermPtr& term, std::unordered_set<uint64_t>& seen)
{
    if (!opHasFlag(term->op, kLeaf)) {
        seen.insert(term->hash);
    }
    for (const auto& child : term->children) {
        collectUniqueOps(child, seen);
    }
}

}  // namespace

size_t
termOpCountUnique(const TermPtr& term)
{
    std::unordered_set<uint64_t> seen;
    collectUniqueOps(term, seen);
    return seen.size();
}

bool
termEquals(const TermPtr& a, const TermPtr& b)
{
    if (a.get() == b.get()) {
        return true;
    }
    if (a->hash != b->hash) {
        return false;
    }
    if (a->interned && b->interned) {
        // Distinct canonical nodes cannot be structurally equal.
        return false;
    }
    if (a->op != b->op || a->payload != b->payload ||
        a->children.size() != b->children.size()) {
        return false;
    }
    for (size_t i = 0; i < a->children.size(); ++i) {
        if (!termEquals(a->children[i], b->children[i])) {
            return false;
        }
    }
    return true;
}

uint64_t
termHash(const TermPtr& term)
{
    return term->hash;
}

namespace {

void
collectHoles(const TermPtr& term, std::vector<int64_t>& out)
{
    if (term->op == Op::Hole) {
        for (int64_t id : out) {
            if (id == term->payload.a) {
                return;
            }
        }
        out.push_back(term->payload.a);
        return;
    }
    for (const auto& child : term->children) {
        collectHoles(child, out);
    }
}

}  // namespace

std::vector<int64_t>
termHoles(const TermPtr& term)
{
    std::vector<int64_t> out;
    collectHoles(term, out);
    return out;
}

TermPtr
canonicalizeHoles(const TermPtr& term)
{
    const auto order = termHoles(term);
    std::unordered_map<int64_t, int64_t> renaming;
    for (size_t i = 0; i < order.size(); ++i) {
        renaming.emplace(order[i], static_cast<int64_t>(i));
    }
    return substituteHoles(term, [&](int64_t id) -> TermPtr {
        return hole(renaming.at(id));
    });
}

TermPtr
substituteHoles(const TermPtr& term,
                const std::function<TermPtr(int64_t)>& mapping)
{
    if (term->op == Op::Hole) {
        TermPtr replacement = mapping(term->payload.a);
        return replacement != nullptr ? replacement : term;
    }
    bool changed = false;
    std::vector<TermPtr> children;
    children.reserve(term->children.size());
    for (const auto& child : term->children) {
        TermPtr mapped = substituteHoles(child, mapping);
        changed = changed || mapped.get() != child.get();
        children.push_back(std::move(mapped));
    }
    if (!changed) {
        return term;
    }
    return makeTerm(term->op, term->payload, std::move(children));
}

namespace {

void
printTerm(std::ostream& os, const TermPtr& term)
{
    switch (term->op) {
      case Op::Lit:
        if (term->payload.kind == Payload::Kind::Float) {
            os << term->payload.f << 'f';
        } else {
            os << term->payload.a;
        }
        return;
      case Op::Arg:
        os << '$' << argDepth(term->payload) << '.'
           << argIndex(term->payload);
        if (argKind(term->payload) != ScalarKind::I32) {
            os << ':' << scalarName(argKind(term->payload));
        }
        return;
      case Op::Hole:
        os << '?' << term->payload.a;
        return;
      case Op::PatRef:
        os << "(pat " << term->payload.a << ')';
        return;
      default:
        break;
    }
    os << '(' << opName(term->op);
    if (term->op == Op::Get) {
        os << ' ' << term->payload.a;
    } else if (term->op == Op::Load) {
        os << ' '
           << scalarName(static_cast<ScalarKind>(term->payload.a));
    } else if (term->op == Op::VecOp) {
        os << ' ' << opName(static_cast<Op>(term->payload.a));
    }
    for (const auto& child : term->children) {
        os << ' ';
        printTerm(os, child);
    }
    os << ')';
}

/** Minimal recursive-descent s-expression parser. */
class Parser {
 public:
    explicit Parser(const std::string& text) : text_(text) {}

    TermPtr
    parse()
    {
        TermPtr result = parseExpr();
        skipSpace();
        ISAMORE_USER_CHECK(pos_ == text_.size(),
                           "trailing characters after term");
        return result;
    }

 private:
    TermPtr
    parseExpr()
    {
        skipSpace();
        ISAMORE_USER_CHECK(pos_ < text_.size(), "unexpected end of input");
        char c = text_[pos_];
        if (c == '(') {
            return parseList();
        }
        if (c == '?') {
            ++pos_;
            return hole(parseInt());
        }
        if (c == '$') {
            ++pos_;
            int64_t depth = parseInt();
            expect('.');
            int64_t index = parseInt();
            ScalarKind kind = ScalarKind::I32;
            if (pos_ < text_.size() && text_[pos_] == ':') {
                ++pos_;
                kind = static_cast<ScalarKind>(parseScalarKind());
            }
            return argT(depth, index, kind);
        }
        return parseNumber();
    }

    TermPtr
    parseList()
    {
        expect('(');
        skipSpace();
        std::string head = parseToken();
        Op op = opFromName(head);
        ISAMORE_USER_CHECK(op != Op::kCount, "unknown operator: " + head);

        Payload payload = Payload::none();
        if (op == Op::Get) {
            skipSpace();
            payload = Payload::ofInt(parseInt());
        } else if (op == Op::Load) {
            skipSpace();
            payload = Payload::ofInt(parseScalarKind());
        } else if (op == Op::VecOp) {
            skipSpace();
            std::string inner = parseToken();
            Op innerOp = opFromName(inner);
            ISAMORE_USER_CHECK(innerOp != Op::kCount,
                               "unknown VecOp operator: " + inner);
            payload = Payload::ofInt(static_cast<int64_t>(innerOp));
        } else if (op == Op::PatRef) {
            skipSpace();
            payload = Payload::ofInt(parseInt());
        }

        std::vector<TermPtr> children;
        while (true) {
            skipSpace();
            ISAMORE_USER_CHECK(pos_ < text_.size(), "unterminated list");
            if (text_[pos_] == ')') {
                ++pos_;
                break;
            }
            children.push_back(parseExpr());
        }
        return makeTerm(op, payload, std::move(children));
    }

    TermPtr
    parseNumber()
    {
        size_t start = pos_;
        if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
            ++pos_;
        }
        bool is_float = false;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E')) {
            if (text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E') {
                is_float = true;
            }
            ++pos_;
        }
        std::string token = text_.substr(start, pos_ - start);
        ISAMORE_USER_CHECK(!token.empty() && token != "-" && token != "+",
                           "expected a number");
        if (pos_ < text_.size() && text_[pos_] == 'f') {
            ++pos_;
            is_float = true;
        }
        if (is_float) {
            return litF(std::stod(token));
        }
        return lit(std::stoll(token));
    }

    int64_t
    parseScalarKind()
    {
        std::string token = parseToken();
        for (int k = 0; k <= static_cast<int>(ScalarKind::F64); ++k) {
            if (scalarName(static_cast<ScalarKind>(k)) == token) {
                return k;
            }
        }
        ISAMORE_USER_CHECK(false, "unknown scalar kind: " + token);
        return 0;
    }

    std::string
    parseToken()
    {
        size_t start = pos_;
        while (pos_ < text_.size() && !std::isspace(static_cast<unsigned char>(
                                          text_[pos_])) &&
               text_[pos_] != '(' && text_[pos_] != ')') {
            ++pos_;
        }
        ISAMORE_USER_CHECK(pos_ > start, "expected a token");
        return text_.substr(start, pos_ - start);
    }

    int64_t
    parseInt()
    {
        size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-') {
            ++pos_;
        }
        while (pos_ < text_.size() &&
               std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
            ++pos_;
        }
        ISAMORE_USER_CHECK(pos_ > start, "expected an integer");
        return std::stoll(text_.substr(start, pos_ - start));
    }

    void
    expect(char c)
    {
        skipSpace();
        ISAMORE_USER_CHECK(pos_ < text_.size() && text_[pos_] == c,
                           std::string("expected '") + c + "'");
        ++pos_;
    }

    void
    skipSpace()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_]))) {
            ++pos_;
        }
    }

    const std::string& text_;
    size_t pos_ = 0;
};

}  // namespace

std::string
termToString(const TermPtr& term)
{
    std::ostringstream os;
    printTerm(os, term);
    return os.str();
}

TermPtr
parseTerm(const std::string& text)
{
    return Parser(text).parse();
}

}  // namespace isamore
