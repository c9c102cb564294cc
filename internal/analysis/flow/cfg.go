// Package flow is the intraprocedural dataflow engine underneath the
// repository's flow-sensitive analyzers (lockorder, gorolife, ctxdeadline,
// reslife, and escapes' call-chain walk — see internal/analysis and
// DESIGN.md §8). It provides two layers, both built on the standard
// library's go/ast + go/types:
//
//  1. a control-flow graph over function bodies (NewCFG), and
//  2. a World of per-function summaries (locks acquired and the order they
//     nest, goroutines spawned, channels joined, deadlines armed, static
//     call sites) propagated across the module call graph (AddPackage +
//     Finalize).
//
// The engine is deliberately intraprocedural within a body and
// summary-based at the call-graph level: each function body is analyzed once,
// and cross-function facts (transitive lock sets, may-block, join/cancel
// signals) are closed over static call edges in Finalize. Dynamic dispatch is
// resolved to the interface method's identity, reflection and cgo are
// invisible, and function values passed as arguments are not tracked; the
// analyzers built on top treat absence of a fact as "unknown", erring toward
// reporting for liveness properties (a goroutine that cannot be proven joined
// is flagged) and toward silence for ordering properties (an unknown callee
// contributes no lock edges).
package flow

import (
	"go/ast"
	"go/token"
)

// Block is one straight-line run of statements in a function's control-flow
// graph. Nodes holds the statements (and for/if conditions, range operands,
// switch tags) in execution order; Succs are the possible successor blocks.
type Block struct {
	// Index is the block's position in CFG.Blocks (entry is 0). Blocks are
	// numbered in construction order, which follows source order closely
	// enough for deterministic iteration.
	Index int
	// Nodes are the AST nodes evaluated in this block, in order.
	Nodes []ast.Node
	// Succs are the blocks control may transfer to after the last node.
	Succs []*Block

	preds []*Block
}

// Preds returns the blocks with an edge into b.
func (b *Block) Preds() []*Block { return b.preds }

// CFG is the control-flow graph of one function body.
type CFG struct {
	// Entry is the block control enters at the top of the body.
	Entry *Block
	// Blocks lists every block, indexed by Block.Index. Unreachable blocks
	// (after return/branch statements) are retained so their statements are
	// still visible to syntactic walks, but carry no predecessor edges.
	Blocks []*Block
}

// cfgBuilder incrementally constructs a CFG. cur is the block new statements
// append to; loop/switch scopes push break and continue targets.
type cfgBuilder struct {
	cfg *CFG
	cur *Block

	// breakTargets / continueTargets are stacks of the innermost enclosing
	// targets; labeled entries carry the label name so labeled break/continue
	// resolve correctly.
	breakTargets    []labeledBlock
	continueTargets []labeledBlock

	// labels maps label names to the block a goto jumps to; gotos seen before
	// their label are resolved at the end.
	labels       map[string]*Block
	pendingGotos []pendingGoto

	// pendingLabel is the label naming the next loop/switch statement, so
	// `L: for ...` registers L as a break/continue target.
	pendingLabel string

	// fallthroughTarget is the next case block while building a switch
	// clause; fallthrough is only legal as the final statement of a clause,
	// so a single slot suffices (saved/restored around nested switches by
	// switchStmt resetting it per clause).
	fallthroughTarget *Block
}

type labeledBlock struct {
	label string
	block *Block
}

type pendingGoto struct {
	from  *Block
	label string
}

// NewCFG builds the control-flow graph of body. A nil body (declared-only
// functions) yields a CFG with a single empty block.
func NewCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{
		cfg:    &CFG{},
		labels: make(map[string]*Block),
	}
	b.cur = b.newBlock()
	b.cfg.Entry = b.cur
	if body != nil {
		b.stmtList(body.List)
	}
	for _, g := range b.pendingGotos {
		if target, ok := b.labels[g.label]; ok {
			b.edge(g.from, target)
		}
	}
	return b.cfg
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.cfg.Blocks)}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *Block) {
	if from == nil || to == nil {
		return
	}
	from.Succs = append(from.Succs, to)
	to.preds = append(to.preds, from)
}

// startBlock makes blk current, linking it from the previous current block
// when linkFromCur is set.
func (b *cfgBuilder) startBlock(blk *Block, linkFromCur bool) {
	if linkFromCur {
		b.edge(b.cur, blk)
	}
	b.cur = blk
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// stmt translates one statement into the graph.
func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.IfStmt:
		if s.Init != nil {
			b.cur.Nodes = append(b.cur.Nodes, s.Init)
		}
		b.cur.Nodes = append(b.cur.Nodes, s.Cond)
		cond := b.cur
		thenBlk := b.newBlock()
		b.edge(cond, thenBlk)
		join := b.newBlock()
		b.cur = thenBlk
		b.stmtList(s.Body.List)
		b.edge(b.cur, join)
		if s.Else != nil {
			elseBlk := b.newBlock()
			b.edge(cond, elseBlk)
			b.cur = elseBlk
			b.stmt(s.Else)
			b.edge(b.cur, join)
		} else {
			b.edge(cond, join)
		}
		b.cur = join

	case *ast.ForStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.cur.Nodes = append(b.cur.Nodes, s.Init)
		}
		head := b.newBlock()
		b.edge(b.cur, head)
		if s.Cond != nil {
			head.Nodes = append(head.Nodes, s.Cond)
		}
		body := b.newBlock()
		b.edge(head, body)
		join := b.newBlock()
		if s.Cond != nil {
			b.edge(head, join)
		}
		// continue → post (or head when absent); break → join.
		var post *Block
		if s.Post != nil {
			post = b.newBlock()
			post.Nodes = append(post.Nodes, s.Post)
			b.edge(post, head)
		}
		contTarget := head
		if post != nil {
			contTarget = post
		}
		b.pushLoop(label, join, contTarget)
		b.cur = body
		b.stmtList(s.Body.List)
		b.edge(b.cur, contTarget)
		b.popLoop()
		b.cur = join

	case *ast.RangeStmt:
		label := b.takeLabel()
		head := b.newBlock()
		head.Nodes = append(head.Nodes, s)
		b.edge(b.cur, head)
		body := b.newBlock()
		join := b.newBlock()
		b.edge(head, body)
		b.edge(head, join)
		b.pushLoop(label, join, head)
		b.cur = body
		b.stmtList(s.Body.List)
		b.edge(b.cur, head)
		b.popLoop()
		b.cur = join

	case *ast.SwitchStmt, *ast.TypeSwitchStmt:
		b.switchStmt(s)

	case *ast.SelectStmt:
		label := b.takeLabel()
		entry := b.cur
		join := b.newBlock()
		b.pushBreak(label, join)
		for _, clause := range s.Body.List {
			comm, ok := clause.(*ast.CommClause)
			if !ok {
				continue
			}
			blk := b.newBlock()
			b.edge(entry, blk)
			if comm.Comm != nil {
				blk.Nodes = append(blk.Nodes, comm.Comm)
			}
			b.cur = blk
			b.stmtList(comm.Body)
			b.edge(b.cur, join)
		}
		b.popBreak()
		b.cur = join

	case *ast.ReturnStmt:
		b.cur.Nodes = append(b.cur.Nodes, s)
		b.cur = b.newBlock() // unreachable continuation

	case *ast.BranchStmt:
		b.branchStmt(s)

	case *ast.LabeledStmt:
		target := b.newBlock()
		b.edge(b.cur, target)
		b.cur = target
		b.labels[s.Label.Name] = target
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""

	default:
		// Straight-line statements: assignments, declarations, expression
		// statements, go/defer/send/incdec/empty, and anything a future Go
		// version adds.
		b.cur.Nodes = append(b.cur.Nodes, s)
	}
}

func (b *cfgBuilder) switchStmt(s ast.Stmt) {
	label := b.takeLabel()
	var init ast.Stmt
	var tag ast.Node
	var clauses []ast.Stmt
	switch s := s.(type) {
	case *ast.SwitchStmt:
		init, clauses = s.Init, s.Body.List
		if s.Tag != nil {
			tag = s.Tag
		}
	case *ast.TypeSwitchStmt:
		init, clauses = s.Init, s.Body.List
		tag = s.Assign
	}
	if init != nil {
		b.cur.Nodes = append(b.cur.Nodes, init)
	}
	if tag != nil {
		b.cur.Nodes = append(b.cur.Nodes, tag)
	}
	entry := b.cur
	join := b.newBlock()
	b.pushBreak(label, join)
	savedFallthrough := b.fallthroughTarget
	hasDefault := false
	var caseBlocks []*Block
	// First create all case blocks so fallthrough can target the next one.
	for range clauses {
		caseBlocks = append(caseBlocks, b.newBlock())
	}
	for i, clause := range clauses {
		cc, ok := clause.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
		}
		blk := caseBlocks[i]
		b.edge(entry, blk)
		for _, e := range cc.List {
			blk.Nodes = append(blk.Nodes, e)
		}
		b.cur = blk
		// fallthrough inside this clause targets the next case block.
		b.fallthroughTarget = nil
		if i+1 < len(caseBlocks) {
			b.fallthroughTarget = caseBlocks[i+1]
		}
		b.stmtList(cc.Body)
		b.edge(b.cur, join)
	}
	b.fallthroughTarget = savedFallthrough
	if !hasDefault {
		b.edge(entry, join)
	}
	b.popBreak()
	b.cur = join
}

func (b *cfgBuilder) branchStmt(s *ast.BranchStmt) {
	b.cur.Nodes = append(b.cur.Nodes, s)
	switch s.Tok {
	case token.BREAK:
		if t := b.findTarget(b.breakTargets, s.Label); t != nil {
			b.edge(b.cur, t)
		}
	case token.CONTINUE:
		if t := b.findTarget(b.continueTargets, s.Label); t != nil {
			b.edge(b.cur, t)
		}
	case token.GOTO:
		if s.Label != nil {
			if t, ok := b.labels[s.Label.Name]; ok {
				b.edge(b.cur, t)
			} else {
				b.pendingGotos = append(b.pendingGotos, pendingGoto{b.cur, s.Label.Name})
			}
		}
	case token.FALLTHROUGH:
		if b.fallthroughTarget != nil {
			b.edge(b.cur, b.fallthroughTarget)
		}
	}
	b.cur = b.newBlock() // unreachable continuation
}

func (b *cfgBuilder) findTarget(stack []labeledBlock, label *ast.Ident) *Block {
	if len(stack) == 0 {
		return nil
	}
	if label == nil {
		return stack[len(stack)-1].block
	}
	for i := len(stack) - 1; i >= 0; i-- {
		if stack[i].label == label.Name {
			return stack[i].block
		}
	}
	return nil
}

func (b *cfgBuilder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

func (b *cfgBuilder) pushLoop(label string, brk, cont *Block) {
	b.breakTargets = append(b.breakTargets, labeledBlock{label, brk})
	b.continueTargets = append(b.continueTargets, labeledBlock{label, cont})
}

func (b *cfgBuilder) popLoop() {
	b.breakTargets = b.breakTargets[:len(b.breakTargets)-1]
	b.continueTargets = b.continueTargets[:len(b.continueTargets)-1]
}

func (b *cfgBuilder) pushBreak(label string, brk *Block) {
	b.breakTargets = append(b.breakTargets, labeledBlock{label, brk})
}

func (b *cfgBuilder) popBreak() {
	b.breakTargets = b.breakTargets[:len(b.breakTargets)-1]
}
