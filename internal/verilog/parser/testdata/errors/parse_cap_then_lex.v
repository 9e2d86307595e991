module top_module (input a, output y);
    assign y1 = ;
    assign y2 = ;
    assign y3 = ;
    assign y4 = ;
    assign y5 = ;
    assign y6 = ;
    assign y7 = ;
    assign y8 = ;
    assign y9 = ;
    assign y10 = ;
    assign y11 = ;
    assign y12 = ;
    assign y13 = ;
    assign y14 = ;
    assign y15 = ;
    assign y16 = ;
    assign y17 = ;
    assign y18 = ;
    assign y19 = ;
    assign y20 = ;
    assign y21 = ;
    assign y22 = ;
    assign y23 = ;
    assign y24 = ;
    assign y = a;
endmodule
// late lex error: 8'h
wire late = 8'h;
