package adal

import (
	"fmt"
	"io"
	"strings"
	"sync"
)

// Credentials identify a caller to an Authenticator.
type Credentials struct {
	User  string
	Token string
}

// Principal is an authenticated identity.
type Principal struct {
	User   string
	Groups []string
}

// Authenticator validates credentials. Implementations are pluggable,
// per the paper's "extensible to support new ... authentication
// mechanisms".
type Authenticator interface {
	Authenticate(c Credentials) (Principal, error)
}

// TokenAuth validates static bearer tokens, the mechanism the LSDF
// web services started with.
type TokenAuth struct {
	mu     sync.RWMutex
	tokens map[string]Principal
}

// NewTokenAuth creates an empty token table.
func NewTokenAuth() *TokenAuth {
	return &TokenAuth{tokens: make(map[string]Principal)}
}

// Register associates a token with a principal.
func (t *TokenAuth) Register(token string, p Principal) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.tokens[token] = p
}

// Authenticate implements Authenticator.
func (t *TokenAuth) Authenticate(c Credentials) (Principal, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	p, ok := t.tokens[c.Token]
	if !ok {
		return Principal{}, fmt.Errorf("%w: bad token for user %q", ErrDenied, c.User)
	}
	if c.User != "" && c.User != p.User {
		return Principal{}, fmt.Errorf("%w: token/user mismatch", ErrDenied)
	}
	return p, nil
}

// Permission bits for ACL entries.
type Permission int

// Permissions compose with bitwise or.
const (
	PermRead Permission = 1 << iota
	PermWrite
)

// ACL authorizes users against path prefixes. The longest matching
// prefix with an entry for the user (or group) decides.
type ACL struct {
	mu      sync.RWMutex
	entries []aclEntry
}

type aclEntry struct {
	prefix    string
	principal string // user or "@group"
	perm      Permission
}

// NewACL creates an empty ACL (default deny).
func NewACL() *ACL { return &ACL{} }

// Allow grants perm on prefix to a user ("garcia") or group ("@itg").
// The grant covers the prefix and every path below it, matched on whole
// path components: a grant on /ddn/bio does not reach /ddn/biology.
func (a *ACL) Allow(principal, prefix string, perm Permission) {
	a.mu.Lock()
	defer a.mu.Unlock()
	// Stored without its trailing slash, so "/" becomes "" and covers all.
	prefix = strings.TrimRight(prefix, "/")
	a.entries = append(a.entries, aclEntry{prefix: prefix, principal: principal, perm: perm})
}

// Check reports whether p holds perm on path.
func (a *ACL) Check(p Principal, path string, perm Permission) bool {
	a.mu.RLock()
	defer a.mu.RUnlock()
	for _, e := range a.entries {
		if path != e.prefix && !(strings.HasPrefix(path, e.prefix) && path[len(e.prefix)] == '/') {
			continue
		}
		if e.perm&perm != perm {
			continue
		}
		if e.principal == p.User {
			return true
		}
		if strings.HasPrefix(e.principal, "@") {
			for _, g := range p.Groups {
				if "@"+g == e.principal {
					return true
				}
			}
		}
	}
	return false
}

// AuthLayer guards a Layer with authentication and authorization.
// Every operation takes the caller's credentials.
type AuthLayer struct {
	layer *Layer
	authn Authenticator
	acl   *ACL
}

// NewAuthLayer wraps a layer.
func NewAuthLayer(layer *Layer, authn Authenticator, acl *ACL) *AuthLayer {
	return &AuthLayer{layer: layer, authn: authn, acl: acl}
}

// Authorize authenticates c and checks perm on path, returning the
// authenticated principal. It is the request-level entry point for
// network front ends (the lsdfd gateway) that need the identity —
// for tenancy accounting — alongside the authorization verdict.
func (al *AuthLayer) Authorize(c Credentials, path string, perm Permission) (Principal, error) {
	p, err := al.authn.Authenticate(c)
	if err != nil {
		return Principal{}, err
	}
	if !al.acl.Check(p, path, perm) {
		return Principal{}, fmt.Errorf("%w: %s on %q for %s", ErrDenied, permName(perm), path, p.User)
	}
	return p, nil
}

func (al *AuthLayer) authorize(c Credentials, path string, perm Permission) error {
	_, err := al.Authorize(c, path, perm)
	return err
}

func permName(p Permission) string {
	switch {
	case p&PermWrite != 0:
		return "write"
	case p&PermRead != 0:
		return "read"
	}
	return "none"
}

// Create opens a new object for writing after a write check.
func (al *AuthLayer) Create(c Credentials, path string) (io.WriteCloser, error) {
	if err := al.authorize(c, path, PermWrite); err != nil {
		return nil, err
	}
	return al.layer.Create(path)
}

// Open reads an object after a read check.
func (al *AuthLayer) Open(c Credentials, path string) (io.ReadCloser, error) {
	if err := al.authorize(c, path, PermRead); err != nil {
		return nil, err
	}
	return al.layer.Open(path)
}

// Stat describes an object after a read check.
func (al *AuthLayer) Stat(c Credentials, path string) (FileInfo, error) {
	if err := al.authorize(c, path, PermRead); err != nil {
		return FileInfo{}, err
	}
	return al.layer.Stat(path)
}

// List enumerates a prefix after a read check on the prefix.
func (al *AuthLayer) List(c Credentials, prefix string) ([]FileInfo, error) {
	if err := al.authorize(c, prefix, PermRead); err != nil {
		return nil, err
	}
	return al.layer.List(prefix)
}

// Remove deletes an object after a write check.
func (al *AuthLayer) Remove(c Credentials, path string) error {
	if err := al.authorize(c, path, PermWrite); err != nil {
		return err
	}
	return al.layer.Remove(path)
}
