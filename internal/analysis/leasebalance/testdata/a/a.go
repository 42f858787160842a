// Package a exercises the leasebalance analyzer against the real
// cluster.ClonePool API and the //dice:lease release-closure protocol.
// BadBranch is the PR 3 clone-lifecycle audit shape: released on the happy
// path, stranded on the other.
package a

import (
	"github.com/dice-project/dice/internal/cluster"
)

func use(*cluster.Cluster) {}

// Good releases on the straight path with the canonical defer shape.
func Good(p *cluster.ClonePool) error {
	c, err := p.Lease()
	if err != nil {
		return err
	}
	defer p.Release(c)
	use(c)
	return nil
}

// Bad never releases.
func Bad(p *cluster.ClonePool) error {
	c, err := p.Lease() // want `not released on every path`
	if err != nil {
		return err
	}
	use(c)
	return nil
}

// BadBranch releases on one branch only.
func BadBranch(p *cluster.ClonePool, cond bool) error {
	c, err := p.Lease() // want `not released on every path`
	if err != nil {
		return err
	}
	if cond {
		p.Release(c)
		return nil
	}
	return nil
}

// GoodBranches releases on every branch.
func GoodBranches(p *cluster.ClonePool, cond bool) error {
	c, err := p.Lease()
	if err != nil {
		return err
	}
	if cond {
		p.Release(c)
		return nil
	}
	p.Release(c)
	return nil
}

// BadDiscard drops the lease on the floor.
func BadDiscard(p *cluster.ClonePool) {
	p.Lease() // want `discarded`
}

// BadBlank binds the clone to blank.
func BadBlank(p *cluster.ClonePool) error {
	_, err := p.Lease() // want `discarded`
	return err
}

// GoodTransfer returns the clone; ownership moves to the caller.
func GoodTransfer(p *cluster.ClonePool) (*cluster.Cluster, error) {
	c, err := p.Lease()
	if err != nil {
		return nil, err
	}
	return c, nil
}

type holder struct {
	c *cluster.Cluster
}

// GoodStore parks the clone in a longer-lived structure.
func GoodStore(p *cluster.ClonePool, h *holder) error {
	c, err := p.Lease()
	if err != nil {
		return err
	}
	h.c = c
	return nil
}

// BadLoop leaks one clone per iteration.
func BadLoop(p *cluster.ClonePool, n int) {
	for i := 0; i < n; i++ {
		c, err := p.Lease() // want `not released on every path`
		if err != nil {
			return
		}
		use(c)
	}
}

// GoodLoop balances within the iteration.
func GoodLoop(p *cluster.ClonePool, n int) {
	for i := 0; i < n; i++ {
		c, err := p.Lease()
		if err != nil {
			return
		}
		use(c)
		p.Release(c)
	}
}

// BadSwitch releases in one case with no default.
func BadSwitch(p *cluster.ClonePool, mode int) {
	c, err := p.Lease() // want `not released on every path`
	if err != nil {
		return
	}
	switch mode {
	case 0:
		p.Release(c)
	}
}

// GoodSwitch covers every case including default.
func GoodSwitch(p *cluster.ClonePool, mode int) {
	c, err := p.Lease()
	if err != nil {
		return
	}
	switch mode {
	case 0:
		use(c)
		p.Release(c)
	default:
		p.Release(c)
	}
}

// acquire is the Campaign.leaseClone shape: the returned closure is the
// release obligation for callers, declared by the directive.
//
//dice:lease
func acquire(p *cluster.ClonePool) (*cluster.Cluster, func(), error) {
	c, err := p.Lease()
	if err != nil {
		return nil, nil, err
	}
	return c, func() { p.Release(c) }, nil
}

// GoodCaller defers the release closure.
func GoodCaller(p *cluster.ClonePool) error {
	c, release, err := acquire(p)
	if err != nil {
		return err
	}
	defer release()
	use(c)
	return nil
}

// BadCaller binds the closure and forgets it.
func BadCaller(p *cluster.ClonePool) error {
	c, release, err := acquire(p) // want `release func returned by acquire is not released`
	if err != nil {
		return err
	}
	_ = release
	use(c)
	return nil
}

// GoodHandoff passes the closure to a registrar (the t.Cleanup shape);
// the obligation transfers with it.
func GoodHandoff(p *cluster.ClonePool, register func(func())) error {
	c, release, err := acquire(p)
	if err != nil {
		return err
	}
	register(release)
	use(c)
	return nil
}

// Allowed suppresses with a mandatory reason.
func Allowed(p *cluster.ClonePool) {
	//dice:allow leasebalance fixture scheduler owns the lease for the campaign lifetime
	c, _ := p.Lease()
	use(c)
}

func summarize(*cluster.Cluster) int { return 0 }

// BadReturnUse returns a value computed from the clone; the clone itself
// stays here and is never released.
func BadReturnUse(p *cluster.ClonePool) (int, error) {
	c, err := p.Lease() // want `not released on every path`
	if err != nil {
		return 0, err
	}
	return summarize(c), nil
}

// GoodReturnUse releases before the returned call runs out of scope.
func GoodReturnUse(p *cluster.ClonePool) (int, error) {
	c, err := p.Lease()
	if err != nil {
		return 0, err
	}
	defer p.Release(c)
	return summarize(c), nil
}

// BadReturnField returns a field of the clone, not the clone.
func BadReturnField(p *cluster.ClonePool) (any, error) {
	c, err := p.Lease() // want `not released on every path`
	if err != nil {
		return nil, err
	}
	return c.Net, nil
}

// GoodReturnWrapped returns the clone inside a composite literal.
func GoodReturnWrapped(p *cluster.ClonePool) (*holder, error) {
	c, err := p.Lease()
	if err != nil {
		return nil, err
	}
	return &holder{c: c}, nil
}

// GoodReturnClosure returns a func literal that owns the clone.
func GoodReturnClosure(p *cluster.ClonePool) (func(), error) {
	c, err := p.Lease()
	if err != nil {
		return nil, err
	}
	return func() { p.Release(c) }, nil
}
