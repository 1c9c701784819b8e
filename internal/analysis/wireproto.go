package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// WireProto cross-checks each package's wire protocol: every opcode an
// encoder writes must have a matching arm in the peer's decoder switch,
// every decoder arm must correspond to an opcode somebody encodes, and
// frame-length arithmetic must be spelled with named constants. The
// tree carries parallel wire formats (tcp v2 frames, nicsim fabric
// frames); a missing arm fails at the peer as a protocol error, and a
// dead arm is untested code that will silently rot — neither is caught
// by the compiler because opcodes are just integers.
//
// Protocol groups are discovered, not configured: any switch statement
// whose cases name two or more integer constants from one const block
// seeds a group. The group's full membership is every package constant
// of the same declared type (typed opcode sets like nicsim's
// frameType), or — for untyped blocks — every constant in the block
// sharing the switch members' common name prefix (op*, atomic*), which
// keeps flag and length constants declared alongside the opcodes out
// of the opcode set. The switch covering the most members is the
// group's primary decoder.
//
// Reachability checks apply only to groups that actually cross a byte
// boundary — a member stored into a byte slice (hdr[4] = opWrite) or
// converted to byte, or a shared named type whose underlying type is
// uint8. Plain in-memory enums dispatch through switches too, but
// their "missing arm" is usually an intentional fall-through default,
// not a protocol hole. Exported constants are also exempt from
// reachability: their encoders live in other packages, and photonvet
// loads dependencies from export data, which carries no function
// bodies.
//
// Diagnostics, reported at the constant's declaration:
//
//   - missing arm: the constant is used as a value (encoded into a
//     frame, passed to a writer) but appears in no switch case and no
//     ==/!= comparison anywhere in the package;
//   - dead opcode: the constant has a decoder arm but is never used as
//     a value, so no encoder can ever produce it;
//   - duplicate value: two group members share a constant value, so
//     the decoder cannot distinguish them.
//
// Additionally, in files that declare or decode a protocol group, a
// length comparison against a bare integer literal (len(b) < 17) whose
// value matches no named package constant is reported: encoder and
// decoder can only be proven to agree on body lengths when both sides
// name the same constant.
var WireProto = &Analyzer{
	Name: "wireproto",
	Doc:  "encoder opcodes must have decoder arms, decoder arms must be reachable, frame lengths must be named",
	Run:  runWireProto,
}

// protoConst is one integer constant eligible for opcode grouping.
type protoConst struct {
	obj   *types.Const
	name  string
	val   int64
	pos   token.Pos
	block int // index of the declaring const GenDecl

	caseUse   bool // appears in a switch case
	cmpUse    bool // appears in an ==/!= comparison
	valueUse  bool // any other (encoding) use
	byteUse   bool // stored into a []byte or converted to byte
	caseSites map[*ast.SwitchStmt]bool
}

func runWireProto(pass *Pass) error {
	consts, blocks, declRanges := collectProtoConsts(pass)
	if len(consts) == 0 {
		return nil
	}
	groupFiles := classifyProtoUses(pass, consts, declRanges)

	// Seed groups from switches: (block, key) -> member set.
	type groupKey struct {
		block int
		key   string
	}
	groups := map[groupKey]map[*protoConst]bool{}
	primary := map[groupKey]*ast.SwitchStmt{}
	primaryN := map[groupKey]int{}
	for _, pc := range consts {
		for sw := range pc.caseSites {
			// Members of pc's block named in this switch.
			var members []*protoConst
			for _, other := range blocks[pc.block] {
				if other.caseSites[sw] {
					members = append(members, other)
				}
			}
			if len(members) < 2 {
				continue
			}
			gk := groupKey{block: pc.block, key: groupID(members)}
			set := groups[gk]
			if set == nil {
				set = map[*protoConst]bool{}
				groups[gk] = set
			}
			for _, m := range expandGroup(blocks[pc.block], members) {
				set[m] = true
			}
			if len(members) > primaryN[gk] {
				primaryN[gk] = len(members)
				primary[gk] = sw
			}
		}
	}

	protoFiles := map[string]bool{}
	for gk, set := range groups {
		sw := primary[gk]
		swPos := pass.Fset.Position(sw.Pos())
		wire := isWireGroup(set)
		if wire {
			protoFiles[swPos.Filename] = true
		}
		byVal := map[int64]*protoConst{}
		for pc := range set {
			if wire {
				protoFiles[pass.Fset.Position(pc.pos).Filename] = true
			}
			if dup, ok := byVal[pc.val]; ok {
				first, second := dup, pc
				if second.pos < first.pos {
					first, second = second, first
				}
				pass.Reportf(second.pos, "opcode %s duplicates the value %d of %s; the decoder cannot distinguish them",
					second.name, second.val, first.name)
			} else {
				byVal[pc.val] = pc
			}
			if !wire || pc.obj.Exported() {
				continue
			}
			decoded := pc.caseUse || pc.cmpUse
			switch {
			case pc.valueUse && !decoded:
				pass.Reportf(pc.pos, "opcode %s is encoded but the decoder switch at %s:%d has no arm for it",
					pc.name, shortFile(swPos.Filename), swPos.Line)
			case !pc.valueUse && pc.caseSites[sw]:
				pass.Reportf(pc.pos, "opcode %s has a decoder arm but is never encoded (dead opcode)", pc.name)
			}
		}
	}

	checkLengthLiterals(pass, protoFiles, groupFiles)
	return nil
}

// collectProtoConsts gathers every package-level integer constant
// declared in a const block, indexed by object and by block.
func collectProtoConsts(pass *Pass) (map[types.Object]*protoConst, map[int][]*protoConst, []ast.Node) {
	consts := map[types.Object]*protoConst{}
	blocks := map[int][]*protoConst{}
	var declRanges []ast.Node
	blockID := 0
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			declRanges = append(declRanges, gd)
			id := blockID
			blockID++
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					obj, ok := pass.ObjectOf(name).(*types.Const)
					if !ok || obj.Val().Kind() != constant.Int {
						continue
					}
					v, exact := constant.Int64Val(obj.Val())
					if !exact {
						continue
					}
					pc := &protoConst{
						obj: obj, name: name.Name, val: v,
						pos: name.Pos(), block: id,
						caseSites: map[*ast.SwitchStmt]bool{},
					}
					consts[obj] = pc
					blocks[id] = append(blocks[id], pc)
				}
			}
		}
	}
	return consts, blocks, declRanges
}

// classifyProtoUses walks every use of the collected constants and
// classifies it as case, comparison, or value (encode) use. Uses
// inside const blocks (derived length constants) are declaration
// plumbing, not protocol traffic, and are skipped. Returns the set of
// files containing at least one collected constant use, for the
// length-literal check's file scoping.
func classifyProtoUses(pass *Pass, consts map[types.Object]*protoConst, declRanges []ast.Node) map[string]bool {
	files := map[string]bool{}
	inConstDecl := func(pos token.Pos) bool {
		for _, d := range declRanges {
			if d.Pos() <= pos && pos < d.End() {
				return true
			}
		}
		return false
	}
	for _, f := range pass.Files {
		parents := buildParents(f)
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := pass.TypesInfo.Uses[id]
			pc := consts[obj]
			if pc == nil || inConstDecl(id.Pos()) {
				return true
			}
			files[pass.Fset.Position(id.Pos()).Filename] = true
			ctx := protoUseContext(pass, parents, id)
			switch ctx.kind {
			case "case":
				pc.caseUse = true
				pc.caseSites[ctx.sw] = true
			case "cmp":
				pc.cmpUse = true
			default:
				pc.valueUse = true
			}
			if ctx.byte {
				pc.byteUse = true
			}
			return true
		})
	}
	return files
}

type protoUse struct {
	kind string // "case", "cmp", or "value"
	sw   *ast.SwitchStmt
	byte bool // the value crosses a byte boundary (wire encoding)
}

// protoUseContext climbs from a constant reference to its use site.
// The climb crosses only wrapper expressions (parens, conversions like
// byte(op), unary ops) so `buf[0] = byte(op)` is a value use while
// `case op:` and `got == op` are decode uses.
func protoUseContext(pass *Pass, parents parentMap, id *ast.Ident) protoUse {
	var n ast.Node = id
	isByte := false
	value := func() protoUse { return protoUse{kind: "value", byte: isByte} }
	for {
		p := parents[n]
		switch p := p.(type) {
		case *ast.ParenExpr:
			n = p
			continue
		case *ast.CallExpr:
			// A conversion wrapping exactly this operand keeps
			// climbing; anything else (argument passing) is encoding.
			if len(p.Args) == 1 && p.Args[0] == n && p.Fun != n {
				if isUint8(pass.TypeOf(p)) {
					isByte = true
				}
				n = p
				continue
			}
			return value()
		case *ast.UnaryExpr:
			n = p
			continue
		case *ast.BinaryExpr:
			if p.Op == token.EQL || p.Op == token.NEQ {
				return protoUse{kind: "cmp", byte: isByte}
			}
			return value()
		case *ast.CaseClause:
			if e, ok := n.(ast.Expr); ok && inCaseList(p, e) {
				if sw, ok := parents[parents[p]].(*ast.SwitchStmt); ok {
					return protoUse{kind: "case", sw: sw, byte: isByte}
				}
				return protoUse{kind: "cmp", byte: isByte} // type-switch/select shapes
			}
			return value()
		case *ast.AssignStmt:
			// hdr[4] = op: a store into a byte slice element is the
			// canonical encode.
			if e, ok := n.(ast.Expr); ok && len(p.Lhs) == len(p.Rhs) {
				for i, rhs := range p.Rhs {
					if rhs != e {
						continue
					}
					if ix, ok := unparen(p.Lhs[i]).(*ast.IndexExpr); ok && isByteSlice(pass.TypeOf(ix.X)) {
						isByte = true
					}
				}
			}
			return value()
		default:
			return value()
		}
	}
}

func isUint8(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.Uint8
}

// isWireGroup reports whether the group's values cross a byte
// boundary: some member is byte-encoded, or the members share a named
// type whose underlying type is uint8.
func isWireGroup(set map[*protoConst]bool) bool {
	var members []*protoConst
	for pc := range set {
		if pc.byteUse {
			return true
		}
		members = append(members, pc)
	}
	if len(members) == 0 {
		return false
	}
	if sharedNamedType(members) == "" {
		return false
	}
	named := members[0].obj.Type().(*types.Named)
	return isUint8(named)
}

func inCaseList(cc *ast.CaseClause, e ast.Expr) bool {
	for _, le := range cc.List {
		if le == e {
			return true
		}
	}
	return false
}

// groupID keys a seed switch's members: their shared declared named
// type when there is one, else their common name prefix.
func groupID(members []*protoConst) string {
	if t := sharedNamedType(members); t != "" {
		return "type:" + t
	}
	return "prefix:" + commonPrefix(members)
}

func sharedNamedType(members []*protoConst) string {
	var name string
	for _, m := range members {
		named, ok := m.obj.Type().(*types.Named)
		if !ok {
			return ""
		}
		if name == "" {
			name = named.Obj().Name()
		} else if name != named.Obj().Name() {
			return ""
		}
	}
	return name
}

func commonPrefix(members []*protoConst) string {
	p := members[0].name
	for _, m := range members[1:] {
		for !strings.HasPrefix(m.name, p) {
			p = p[:len(p)-1]
			if p == "" {
				return ""
			}
		}
	}
	return p
}

// expandGroup widens the seed members to the full opcode set: all
// same-typed constants package-wide, or all same-prefix constants in
// the seed's block.
func expandGroup(block []*protoConst, seed []*protoConst) []*protoConst {
	key := groupID(seed)
	var out []*protoConst
	for _, pc := range block {
		switch {
		case strings.HasPrefix(key, "type:"):
			if named, ok := pc.obj.Type().(*types.Named); ok && "type:"+named.Obj().Name() == key {
				out = append(out, pc)
			}
		case key == "prefix:":
			// No shared prefix: the group is exactly the seed.
		default:
			if strings.HasPrefix(pc.name, strings.TrimPrefix(key, "prefix:")) {
				out = append(out, pc)
			}
		}
	}
	if len(out) == 0 {
		out = seed
	}
	return out
}

// checkLengthLiterals reports bare integer literals compared against
// len() in protocol files when no named constant carries that value.
func checkLengthLiterals(pass *Pass, protoFiles, constUseFiles map[string]bool) {
	namedVals := map[int64]bool{}
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		if c, ok := scope.Lookup(name).(*types.Const); ok && c.Val().Kind() == constant.Int {
			if v, exact := constant.Int64Val(c.Val()); exact {
				namedVals[v] = true
			}
		}
	}
	for _, f := range pass.Files {
		fname := pass.Fset.Position(f.Pos()).Filename
		if !protoFiles[fname] && !constUseFiles[fname] {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok {
				return true
			}
			switch be.Op {
			case token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ:
			default:
				return true
			}
			var lit *ast.BasicLit
			if isLenCall(pass, be.X) {
				lit, _ = unparen(be.Y).(*ast.BasicLit)
			} else if isLenCall(pass, be.Y) {
				lit, _ = unparen(be.X).(*ast.BasicLit)
			}
			if lit == nil || lit.Kind != token.INT {
				return true
			}
			tv, ok := pass.TypesInfo.Types[lit]
			if !ok || tv.Value == nil {
				return true
			}
			v, exact := constant.Int64Val(tv.Value)
			if !exact || v < 4 || namedVals[v] {
				return true
			}
			pass.Reportf(lit.Pos(), "frame-length literal %d is not backed by a named constant; encoder and decoder cannot be checked for agreement", v)
			return true
		})
	}
}

func isLenCall(pass *Pass, e ast.Expr) bool {
	call, ok := unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) != 1 || !isBuiltinCall(pass.TypesInfo, call) {
		return false
	}
	id, ok := unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "len"
}

// shortFile trims a path to its last two segments for diagnostics.
func shortFile(path string) string {
	parts := strings.Split(path, "/")
	if len(parts) <= 2 {
		return path
	}
	return strings.Join(parts[len(parts)-2:], "/")
}
