// nothing but a comment
